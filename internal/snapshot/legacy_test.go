package snapshot

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// legacyFixture is a VPSNAP01 file written by the full-snapshot encoder
// this package no longer has: a 2-shard server running the standard
// bank (l, s2, fcm1, fcm2, fcm3) after 240 events over 8 PCs, checkpointed
// at shutdown. It pins that a legacy snapshot keeps restoring.
const legacyFixture = "testdata/legacy.vpsnap"

// placeLegacy copies the fixture into dir under its canonical legacy
// name, as a checkpoint directory from before the upgrade holds it, and
// returns the path and the decoded snapshot.
func placeLegacy(t *testing.T, dir string) (string, *Snapshot) {
	t.Helper()
	raw, err := os.ReadFile(legacyFixture)
	if err != nil {
		t.Fatal(err)
	}
	s, err := DecodeBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	name := fmt.Sprintf("snap-%020d-%020d-%s%s", s.Meta.Events, s.Meta.CreatedUnixNano, s.Meta.ID, Ext)
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, s
}

// rootOf lays a snapshot out as a chain root: each predictor's state
// blob becomes one inline chunk (none for an empty blob) after an empty
// header, which is how a root stores an opaque predictor.
func rootOf(s *Snapshot) *Delta {
	d := &Delta{
		Meta: DeltaMeta{
			CreatedUnixNano: s.Meta.CreatedUnixNano,
			Predictors:      s.Meta.Predictors,
		},
		Shards: make([]DeltaShard, len(s.Shards)),
	}
	for i, sh := range s.Shards {
		ds := DeltaShard{Shard: sh.Shard, Events: sh.Events, PCs: sh.PCs}
		for _, ps := range sh.Preds {
			dp := DeltaPred{Name: ps.Name, Correct: ps.Correct, Total: ps.Total}
			if len(ps.State) > 0 {
				dp.Chunks = []ChunkRef{MakeChunk(0, 0, ps.State)}
			}
			ds.Preds = append(ds.Preds, dp)
		}
		d.Shards[i] = ds
	}
	return d
}

// TestLegacySnapshotMatchesRoot: the legacy fixture and the same state
// written as a depth-0 .vpdelta resolve to equal Snapshots, so restore
// and vpstate see one state whichever file they open.
func TestLegacySnapshotMatchesRoot(t *testing.T) {
	dir := t.TempDir()
	legacyPath, legacy := placeLegacy(t, dir)
	rootPath, err := WriteDeltaFileAtomic(dir, rootOf(legacy))
	if err != nil {
		t.Fatal(err)
	}

	fromLegacy, legacyChain, err := ResolveChain(legacyPath)
	if err != nil {
		t.Fatal(err)
	}
	if legacyChain.Tip != nil || legacyChain.Depth != 0 || len(legacyChain.Files) != 1 {
		t.Fatalf("legacy chain info = %+v", legacyChain)
	}
	fromRoot, rootChain, err := ResolveChain(rootPath)
	if err != nil {
		t.Fatal(err)
	}
	if rootChain.Tip == nil || rootChain.Depth != 0 || len(rootChain.Files) != 1 {
		t.Fatalf("root chain info = %+v", rootChain)
	}
	if fromLegacy.Meta.Events != 240 || fromLegacy.Meta.Shards != 2 {
		t.Fatalf("fixture meta = %+v", fromLegacy.Meta)
	}
	if fromRoot.Meta.Events != fromLegacy.Meta.Events || fromRoot.Meta.Shards != fromLegacy.Meta.Shards ||
		!reflect.DeepEqual(fromRoot.Meta.Predictors, fromLegacy.Meta.Predictors) {
		t.Fatalf("meta differs: root %+v, legacy %+v", fromRoot.Meta, fromLegacy.Meta)
	}
	if !reflect.DeepEqual(fromRoot.Shards, fromLegacy.Shards) {
		t.Fatal("root and legacy snapshot of one state resolve differently")
	}
}
