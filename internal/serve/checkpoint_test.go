package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/snapshot"
)

func mustFactories(t *testing.T, spec string) []core.NamedFactory {
	t.Helper()
	facs, err := core.ParseFactories(spec)
	if err != nil {
		t.Fatal(err)
	}
	return facs
}

func jsonDecode(r io.Reader, v any) error { return json.NewDecoder(r).Decode(v) }

// driveAll pushes evs through the server and returns per-predictor
// correct tallies for exactly that stream.
func driveAll(t *testing.T, s *Server, evs []Event, clients int) *DriveResult {
	t.Helper()
	res, err := DriveEvents(evs, DriveConfig{Addr: s.Addr().String(), Clients: clients, BatchSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != uint64(len(evs)) {
		t.Fatalf("drove %d of %d events", res.Events, len(evs))
	}
	return res
}

// TestKillAndRestoreParity is the subsystem's acceptance test: serve a
// stream prefix, checkpoint (the cut is a chain root), kill the server,
// restore a new one from the checkpoint file and serve the remainder —
// the remainder's predictions must be bit-identical to an uninterrupted
// run, at several shard counts. TestKillAndRestoreParityDeltaChain runs
// the same check with the kill landing mid-chain.
func TestKillAndRestoreParity(t *testing.T) { killRestoreParity(t, 1) }

// killRestoreParity serves the first two thirds of a stream in segs
// segments, cutting a checkpoint after each (a root, then segs-1
// deltas), kills the server, restores a new one by resolving the newest
// checkpoint's chain and serves the remainder, at 1, 2 and 4 shards.
// Verified three ways: per-predictor tallies against an uninterrupted
// server, against an offline WarmBank replay of the remainder, and by
// comparing the final drained state of both servers byte-for-byte.
func killRestoreParity(t *testing.T, segs int) {
	evs, _ := capturedStream(t)
	cut := len(evs) * 2 / 3

	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()

			// Uninterrupted reference run, final state checkpointed at exit.
			refFinalDir := t.TempDir()
			ref, err := New(Config{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.Start("127.0.0.1:0", ""); err != nil {
				t.Fatal(err)
			}
			full := driveAll(t, ref, evs, 2)
			refFinal, err := ref.Shutdown(refFinalDir)
			if err != nil {
				t.Fatal(err)
			}

			// Interrupted run: drive in segments, checkpoint after each,
			// kill after the last.
			a, err := New(Config{Shards: shards, FullEvery: 64})
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Start("127.0.0.1:0", ""); err != nil {
				t.Fatal(err)
			}
			var prefixCorrect []uint64
			var infos []CheckpointInfo
			for si := 0; si < segs; si++ {
				lo, hi := cut*si/segs, cut*(si+1)/segs
				res := driveAll(t, a, evs[lo:hi], 2)
				if prefixCorrect == nil {
					prefixCorrect = make([]uint64, len(res.Correct))
				}
				for i, c := range res.Correct {
					prefixCorrect[i] += c
				}
				info, err := a.WriteCheckpoint(dir)
				if err != nil {
					t.Fatal(err)
				}
				if info.Events != uint64(hi) || info.Shards != shards {
					t.Fatalf("checkpoint = %+v, want %d events over %d shards", info, hi, shards)
				}
				infos = append(infos, info)
			}
			if infos[0].Kind != "full" || infos[0].Depth != 0 || infos[0].ParentID != "" {
				t.Fatalf("first checkpoint is not a chain root: %+v", infos[0])
			}
			for i := 1; i < segs; i++ {
				if infos[i].Kind != "delta" || infos[i].Depth != i || infos[i].ParentID != infos[i-1].ID {
					t.Fatalf("checkpoint %d does not extend the chain: %+v (parent %+v)", i, infos[i], infos[i-1])
				}
			}
			st := a.Stats()
			if st.Checkpoints.Full != 1 || st.Checkpoints.Deltas != uint64(segs-1) || st.Checkpoints.ChainDepth != int64(segs-1) {
				t.Fatalf("stats checkpoint block = %+v", st.Checkpoints)
			}
			if err := a.Close(); err != nil { // the "kill": no graceful checkpoint
				t.Fatal(err)
			}

			// Restart from the newest checkpoint, resolving its chain.
			latest, err := snapshot.LatestAny(dir)
			if err != nil {
				t.Fatal(err)
			}
			if latest != infos[segs-1].Path {
				t.Fatalf("LatestAny = %s, want tip %s", latest, infos[segs-1].Path)
			}
			snap, chain, err := snapshot.ResolveChain(latest)
			if err != nil {
				t.Fatal(err)
			}
			if chain.Depth != segs-1 || len(chain.Files) != segs {
				t.Fatalf("chain depth %d over %d files, want %d over %d", chain.Depth, len(chain.Files), segs-1, segs)
			}
			if snap.Meta.Events != uint64(cut) {
				t.Fatalf("resolved chain carries %d events, want %d", snap.Meta.Events, cut)
			}
			b, err := New(Config{Shards: shards, FullEvery: 64})
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Restore(snap); err != nil {
				t.Fatal(err)
			}
			if err := b.Start("127.0.0.1:0", ""); err != nil {
				t.Fatal(err)
			}
			suffix := driveAll(t, b, evs[cut:], 2)
			if suffix.ServerPriorEvents != uint64(cut) {
				t.Fatalf("restored server reported %d prior events, want %d", suffix.ServerPriorEvents, cut)
			}

			// 1. prefix + suffix must equal the uninterrupted tallies.
			for i, name := range full.Predictors {
				if got, want := prefixCorrect[i]+suffix.Correct[i], full.Correct[i]; got != want {
					t.Errorf("%s: interrupted %d correct, uninterrupted %d", name, got, want)
				}
			}

			// 2. The offline warm bank must reproduce the suffix exactly,
			// stepping event by event and then in batches.
			warm, err := NewWarmBank(snap)
			if err != nil {
				t.Fatal(err)
			}
			mid := cut + (len(evs)-cut)/2
			for _, ev := range evs[cut:mid] {
				warm.Step(ev.PC, ev.Value)
			}
			warm.StepBatch(evs[mid:])
			if !reflect.DeepEqual(warm.Correct(), suffix.Correct) {
				t.Errorf("warm bank replay %v, restored server %v", warm.Correct(), suffix.Correct)
			}

			// 3. The restored server's final drained state must be
			// byte-identical to the uninterrupted server's.
			bFinal, err := b.Shutdown(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			refSnap, _, err := snapshot.ResolveChain(refFinal.Path)
			if err != nil {
				t.Fatal(err)
			}
			bSnap, _, err := snapshot.ResolveChain(bFinal.Path)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(refSnap.Shards, bSnap.Shards) {
				t.Error("final predictor state differs between interrupted and uninterrupted runs")
			}
			if refSnap.Meta.Events != bSnap.Meta.Events || bSnap.Meta.Events != uint64(len(evs)) {
				t.Errorf("final events %d vs %d, want %d", refSnap.Meta.Events, bSnap.Meta.Events, len(evs))
			}
		})
	}
}

// TestCheckpointUnderLiveTraffic races checkpoints against an active
// drive: every checkpoint must be internally consistent (its own shard
// events sum to its header) and the drive's tallies must stay exact.
func TestCheckpointUnderLiveTraffic(t *testing.T) {
	evs, _ := capturedStream(t)
	_, want := offlineReplay(t, "l,s2,fcm1,fcm2,fcm3", evs)
	dir := t.TempDir()
	s, err := New(Config{Shards: 4, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	done := make(chan *DriveResult, 1)
	errc := make(chan error, 1)
	go func() {
		res, err := DriveEvents(evs, DriveConfig{Addr: s.Addr().String(), Clients: 4, BatchSize: 256})
		errc <- err
		done <- res
	}()
	var infos []CheckpointInfo
	for i := 0; i < 8; i++ {
		info, err := s.WriteCheckpoint(dir)
		if err != nil {
			t.Fatal(err)
		}
		infos = append(infos, info)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	res := <-done
	for i, name := range res.Predictors {
		if res.Correct[i] != want[i] {
			t.Errorf("%s: drive tallied %d, offline replay %d (checkpointing perturbed serving)", name, res.Correct[i], want[i])
		}
	}
	// Every mid-stream checkpoint must resolve cleanly through its chain
	// and restore into a working warm bank.
	for _, info := range infos {
		snap, _, err := snapshot.ResolveChain(info.Path)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Meta.Events != info.Events {
			t.Fatalf("checkpoint %s header %d events, info says %d", info.ID, snap.Meta.Events, info.Events)
		}
		if _, err := NewWarmBank(snap); err != nil {
			t.Fatalf("checkpoint %s does not restore: %v", info.ID, err)
		}
	}
}

// TestRestoreValidation: a snapshot must only restore into a server with
// the identical shard layout and predictor bank.
func TestRestoreValidation(t *testing.T) {
	evs, _ := capturedStream(t)
	dir := t.TempDir()
	s, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	driveAll(t, s, evs[:5000], 1)
	ck, err := s.WriteCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	snap, _, err := snapshot.ResolveChain(ck.Path)
	if err != nil {
		t.Fatal(err)
	}

	wrongShards, _ := New(Config{Shards: 3})
	if err := wrongShards.Restore(snap); err == nil {
		t.Fatal("restore into mismatched shard count accepted")
	}
	wrongBank, _ := New(Config{Shards: 2, Predictors: mustFactories(t, "l,s2")})
	if err := wrongBank.Restore(snap); err == nil {
		t.Fatal("restore into mismatched predictor bank accepted")
	}
	started := startTestServer(t, 2, "")
	if err := started.Restore(snap); err == nil {
		t.Fatal("restore into a started server accepted")
	}
}

// TestStatsReportsRestoreProvenance: /stats must expose state size and,
// after a restore, the snapshot ID and restore timestamp, so a driver
// can tell warm-from-snapshot apart from warm-from-traffic.
func TestStatsReportsRestoreProvenance(t *testing.T) {
	evs, _ := capturedStream(t)
	dir := t.TempDir()
	s, err := New(Config{Shards: 2, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	driveAll(t, s, evs[:8000], 1)

	cold := s.Stats()
	if cold.RestoredSnapshotID != "" || cold.RestoredAt != "" {
		t.Fatalf("cold server claims restore provenance: %+v", cold)
	}
	if cold.StartedAt == "" || cold.ApproxStateBytes <= 0 {
		t.Fatalf("missing started_at or state size: %+v", cold)
	}
	for _, st := range cold.PerShard {
		if st.ApproxStateBytes <= 0 {
			t.Fatalf("shard %d reports no resident state", st.Shard)
		}
	}

	// Trigger the checkpoint over HTTP.
	resp, err := http.Post("http://"+s.HTTPAddr().String()+"/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /snapshot = %d", resp.StatusCode)
	}
	var ck CheckpointInfo
	if err := jsonDecode(resp.Body, &ck); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ck.Events != 8000 {
		t.Fatalf("HTTP checkpoint captured %d events, want 8000", ck.Events)
	}
	s.Close()

	snap, _, err := snapshot.ResolveChain(ck.Path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if err := r.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	warm := r.Stats()
	if warm.RestoredSnapshotID != snap.Meta.ID || warm.RestoredAt == "" {
		t.Fatalf("restored server stats missing provenance: %+v", warm)
	}
	if warm.Events != 8000 {
		t.Fatalf("restored server reports %d events, want 8000", warm.Events)
	}
}

// TestHTTPSnapshotWithoutDir: the trigger must refuse cleanly when no
// checkpoint directory is configured.
func TestHTTPSnapshotWithoutDir(t *testing.T) {
	s := startTestServer(t, 1, "127.0.0.1:0")
	resp, err := http.Post("http://"+s.HTTPAddr().String()+"/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("POST /snapshot without dir = %d, want %d", resp.StatusCode, http.StatusConflict)
	}
}
