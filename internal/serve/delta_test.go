package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/snapshot"
)

// checkpointFiles lists the checkpoint files (either generation) in dir.
func checkpointFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	for _, pat := range []string{"*" + snapshot.Ext, "*" + snapshot.DeltaExt} {
		m, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m...)
	}
	return out
}

// TestKillAndRestoreParityDeltaChain is TestKillAndRestoreParity with a
// root then three deltas cut before the kill, so restore resolves a
// depth-3 chain.
func TestKillAndRestoreParityDeltaChain(t *testing.T) { killRestoreParity(t, 4) }

// TestDeltaCheckpointCleanChunkSkip pins the mechanism the format exists
// for: after a full checkpoint, traffic touching a single PC must yield
// a delta that stores only the few dirty chunks inline, dedups the rest
// to references, resolves bit-identically to a forced full cut of the
// same state, and is swept (with its root) once that full lands.
func TestDeltaCheckpointCleanChunkSkip(t *testing.T) {
	evs, _ := capturedStream(t)
	dir := t.TempDir()
	s, err := New(Config{Shards: 2, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	driveAll(t, s, evs, 2)
	fullInfo, err := s.WriteCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fullInfo.Kind != "full" {
		t.Fatalf("first checkpoint kind %q", fullInfo.Kind)
	}

	// Touch exactly one PC: at most one chunk per predictor dirties on
	// its owning shard, everything else must skip clean.
	hot := make([]Event, 0, 256)
	for _, ev := range evs {
		if ev.PC == evs[0].PC {
			hot = append(hot, ev)
		}
		if len(hot) == 256 {
			break
		}
	}
	driveAll(t, s, hot, 1)
	deltaInfo, err := s.WriteCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if deltaInfo.Kind != "delta" || deltaInfo.ParentID != fullInfo.ID || deltaInfo.Depth != 1 {
		t.Fatalf("second checkpoint did not chain: %+v", deltaInfo)
	}
	if deltaInfo.ChunksDeduped == 0 {
		t.Fatal("single-PC delta deduped no chunks")
	}
	if deltaInfo.ChunksWritten >= fullInfo.ChunksWritten {
		t.Fatalf("delta wrote %d chunks inline, full wrote %d", deltaInfo.ChunksWritten, fullInfo.ChunksWritten)
	}
	fullSize := fileSize(t, fullInfo.Path)
	deltaSize := fileSize(t, deltaInfo.Path)
	if deltaSize >= fullSize {
		t.Fatalf("delta file %d bytes, full %d", deltaSize, fullSize)
	}

	// Resolve the chain now — the forced full below sweeps it away.
	chainSnap, chain, err := snapshot.ResolveChain(deltaInfo.Path)
	if err != nil {
		t.Fatal(err)
	}
	if chain.Depth != 1 || len(chain.Files) != 2 {
		t.Fatalf("chain = %+v", chain)
	}

	// A forced full of the identical state must materialize the exact
	// same bytes the chain resolves to.
	forced, err := s.WriteFullCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if forced.Kind != "full" || forced.Depth != 0 {
		t.Fatalf("forced checkpoint = %+v", forced)
	}
	forcedSnap, _, err := snapshot.ResolveChain(forced.Path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(chainSnap.Shards, forcedSnap.Shards) {
		t.Error("chain-resolved state differs from a forced full cut of the same state")
	}
	if chainSnap.Meta.Events != forcedSnap.Meta.Events {
		t.Errorf("events %d vs %d", chainSnap.Meta.Events, forcedSnap.Meta.Events)
	}

	// The full superseded the old chain: GC must leave only the new root.
	files := checkpointFiles(t, dir)
	if len(files) != 1 || files[0] != forced.Path {
		t.Fatalf("after full, dir holds %v, want only %s", files, forced.Path)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestLegacySnapshotRestoreCutsRoot: a server restored from a legacy
// .vpsnap (the committed fixture, written by the retired full-snapshot
// encoder) starts its own chain — the first cut is a .vpdelta root of
// exactly the restored state, which sweeps the legacy file — and keeps
// chaining deltas from there.
func TestLegacySnapshotRestoreCutsRoot(t *testing.T) {
	raw, err := os.ReadFile("../snapshot/testdata/legacy.vpsnap")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	legacy, err := snapshot.DecodeBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	legacyPath := filepath.Join(dir, fmt.Sprintf("snap-%020d-%020d-%s%s",
		legacy.Meta.Events, legacy.Meta.CreatedUnixNano, legacy.Meta.ID, snapshot.Ext))
	if err := os.WriteFile(legacyPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	latest, err := snapshot.LatestAny(dir)
	if err != nil || latest != legacyPath {
		t.Fatalf("LatestAny = %s, %v; want %s", latest, err, legacyPath)
	}
	snap, _, err := snapshot.ResolveChain(latest)
	if err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{Shards: snap.Meta.Shards, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	root, err := s.WriteCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if root.Kind != "full" || root.Depth != 0 || root.ParentID != "" ||
		filepath.Ext(root.Path) != snapshot.DeltaExt || root.Events != legacy.Meta.Events {
		t.Fatalf("first cut after a legacy restore = %+v, want a .vpdelta root of %d events", root, legacy.Meta.Events)
	}
	rootSnap, _, err := snapshot.ResolveChain(root.Path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rootSnap.Shards, legacy.Shards) {
		t.Error("root state differs from the restored legacy snapshot")
	}
	if files := checkpointFiles(t, dir); len(files) != 1 || files[0] != root.Path {
		t.Fatalf("after the root, dir holds %v, want only %s", files, root.Path)
	}

	evs, _ := capturedStream(t)
	driveAll(t, s, evs[:2000], 1)
	delta, err := s.WriteCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Kind != "delta" || delta.ParentID != root.ID || delta.Depth != 1 {
		t.Fatalf("second cut = %+v, want a delta on %s", delta, root.ID)
	}
}
