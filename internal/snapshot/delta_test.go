package snapshot

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// ref strips a chunk's inline bytes, turning it into a hash reference.
func ref(c ChunkRef) ChunkRef {
	c.Data = nil
	return c
}

// sampleFull builds the root of a two-shard, two-predictor chain. The
// "l" chunk bytes are shared verbatim between the shards, so the chain
// exercises cross-shard dedup as well as cross-interval dedup.
func sampleFull() *Delta {
	sharedA := MakeChunk(0x400, 2, []byte{10, 11, 12})
	return &Delta{
		Meta: DeltaMeta{
			CreatedUnixNano: 1_700_000_000_000_000_001,
			Predictors:      []string{"l", "hyb"},
		},
		Shards: []DeltaShard{
			{
				Shard:  0,
				Events: 1000,
				PCs:    []uint64{0x400, 0x404, 0x90000},
				Preds: []DeltaPred{
					{Name: "l", Correct: 400, Total: 1000, Header: []byte{3},
						Chunks: []ChunkRef{sharedA, MakeChunk(0x404, 1, []byte{20, 21})}},
					{Name: "hyb", Correct: 500, Total: 1000, Header: nil,
						Chunks: []ChunkRef{MakeChunk(0, 0, bytes.Repeat([]byte{0xAB}, 64))}},
				},
			},
			{
				Shard:  1,
				Events: 250,
				PCs:    []uint64{0x500},
				Preds: []DeltaPred{
					{Name: "l", Correct: 1, Total: 250, Header: []byte{3},
						Chunks: []ChunkRef{ref(sharedA)}},
					{Name: "hyb", Correct: 2, Total: 250, Header: nil,
						Chunks: []ChunkRef{MakeChunk(0, 0, []byte{7})}},
				},
			},
		},
	}
}

// sampleChild builds a delta on top of parent: shard 0's first "l" chunk
// and shard 1 are unchanged (references), the rest re-encoded.
func sampleChild(parent *Delta) *Delta {
	keepA := ref(parent.Shards[0].Preds[0].Chunks[0])
	keepHyb1 := ref(parent.Shards[1].Preds[1].Chunks[0])
	return &Delta{
		Meta: DeltaMeta{
			CreatedUnixNano: parent.Meta.CreatedUnixNano + 1,
			ParentID:        parent.Meta.ID,
			Depth:           parent.Meta.Depth + 1,
			Predictors:      parent.Meta.Predictors,
		},
		Shards: []DeltaShard{
			{
				Shard:  0,
				Events: 1500,
				PCs:    parent.Shards[0].PCs,
				Preds: []DeltaPred{
					{Name: "l", Correct: 600, Total: 1500, Header: []byte{3},
						Chunks: []ChunkRef{keepA, MakeChunk(0x404, 1, []byte{22, 23, 24})}},
					{Name: "hyb", Correct: 700, Total: 1500, Header: nil,
						Chunks: []ChunkRef{MakeChunk(0, 0, bytes.Repeat([]byte{0xCD}, 48))}},
				},
			},
			{
				Shard:  1,
				Events: 250,
				PCs:    parent.Shards[1].PCs,
				Preds: []DeltaPred{
					{Name: "l", Correct: 1, Total: 250, Header: []byte{3},
						Chunks: []ChunkRef{ref(parent.Shards[1].Preds[0].Chunks[0])}},
					{Name: "hyb", Correct: 2, Total: 250, Header: nil,
						Chunks: []ChunkRef{keepHyb1}},
				},
			},
		},
	}
}

// blobOf reconstructs the expected canonical state blob for one
// predictor of a delta, pulling reference bytes from src chunks.
func blobOf(p *DeltaPred, pool map[[HashSize]byte][]byte) []byte {
	var out []byte
	out = append(out, p.Header...)
	for i := range p.Chunks {
		c := &p.Chunks[i]
		if c.Inline() {
			out = append(out, c.Data...)
		} else {
			out = append(out, pool[c.Hash]...)
		}
	}
	return out
}

func poolOf(ds ...*Delta) map[[HashSize]byte][]byte {
	pool := make(map[[HashSize]byte][]byte)
	for _, d := range ds {
		for si := range d.Shards {
			for pi := range d.Shards[si].Preds {
				for _, c := range d.Shards[si].Preds[pi].Chunks {
					if c.Inline() {
						pool[c.Hash] = c.Data
					}
				}
			}
		}
	}
	return pool
}

func TestDeltaEncodeDecodeRoundTrip(t *testing.T) {
	full := sampleFull()
	var buf bytes.Buffer
	id, err := EncodeDelta(&buf, full)
	if err != nil {
		t.Fatal(err)
	}
	if full.Meta.ID != id || full.Meta.Events != 1250 || full.Meta.Shards != 2 {
		t.Fatalf("EncodeDelta did not normalize meta: %+v", full.Meta)
	}
	got, err := DecodeDelta(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.ID != id || got.Meta.FormatVersion != DeltaFormatVersion || got.Meta.Depth != 0 {
		t.Fatalf("meta = %+v", got.Meta)
	}
	// Normalize nil-vs-empty the wire cannot distinguish.
	norm := func(d *Delta) {
		for si := range d.Shards {
			for pi := range d.Shards[si].Preds {
				if len(d.Shards[si].Preds[pi].Header) == 0 {
					d.Shards[si].Preds[pi].Header = nil
				}
			}
		}
	}
	want := sampleFull()
	if _, err := EncodeDelta(&bytes.Buffer{}, want); err != nil {
		t.Fatal(err)
	}
	norm(want)
	norm(got)
	if !reflect.DeepEqual(got.Shards, want.Shards) {
		t.Fatalf("shards differ:\n got %+v\nwant %+v", got.Shards, want.Shards)
	}
	var buf2 bytes.Buffer
	id2, err := EncodeDelta(&buf2, got)
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id || !bytes.Equal(buf2.Bytes(), buf.Bytes()) {
		t.Fatal("re-encode is not byte-identical")
	}
	st := got.Stats()
	if st.Inline != 4 || st.Refs != 1 {
		t.Fatalf("stats = %+v, want 4 inline / 1 ref", st)
	}
}

func TestDeltaEncodeRejectsMalformed(t *testing.T) {
	for name, mutate := range map[string]func(*Delta){
		"no shards":          func(d *Delta) { d.Shards = nil },
		"no predictors":      func(d *Delta) { d.Meta.Predictors = nil },
		"shard id gap":       func(d *Delta) { d.Shards[1].Shard = 2 },
		"pred name mismatch": func(d *Delta) { d.Shards[1].Preds[0].Name = "zzz" },
		"unsorted pcs":       func(d *Delta) { d.Shards[0].PCs = []uint64{8, 4} },
		"full with depth":    func(d *Delta) { d.Meta.Depth = 1 },
		"delta depth zero":   func(d *Delta) { d.Meta.ParentID = "abc" },
		"chunk len mismatch": func(d *Delta) { d.Shards[0].Preds[0].Chunks[0].Len++ },
	} {
		d := sampleFull()
		mutate(d)
		if _, err := EncodeDelta(&bytes.Buffer{}, d); err == nil {
			t.Errorf("%s: EncodeDelta accepted", name)
		}
	}
}

func TestDeltaDecodeRejectsCorrupt(t *testing.T) {
	var buf bytes.Buffer
	if _, err := EncodeDelta(&buf, sampleFull()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		mut := append([]byte(nil), data...)
		mut[0] ^= 0x40
		if _, err := DecodeDeltaBytes(mut); err == nil || errors.Is(err, ErrChecksum) {
			t.Fatalf("got %v, want a magic error", err)
		}
	})
	t.Run("flipped payload byte fails checksum", func(t *testing.T) {
		mut := append([]byte(nil), data...)
		mut[len(DeltaMagic)+3] ^= 0x01
		if _, err := DecodeDeltaBytes(mut); !errors.Is(err, ErrChecksum) {
			t.Fatalf("got %v, want ErrChecksum", err)
		}
	})
	t.Run("truncations", func(t *testing.T) {
		for cut := 0; cut < len(data); cut++ {
			if _, err := DecodeDeltaBytes(data[:cut]); err == nil {
				t.Fatalf("truncation to %d bytes accepted", cut)
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		if _, err := DecodeDeltaBytes(append(append([]byte(nil), data...), 0xEE)); err == nil {
			t.Fatal("trailing garbage accepted")
		}
	})
}

// writeChain writes full + child into dir and returns their paths.
func writeChain(t *testing.T) (dir, fullPath, childPath string, full, child *Delta) {
	t.Helper()
	dir = t.TempDir()
	full = sampleFull()
	fullPath, err := WriteDeltaFileAtomic(dir, full)
	if err != nil {
		t.Fatal(err)
	}
	child = sampleChild(full)
	childPath, err = WriteDeltaFileAtomic(dir, child)
	if err != nil {
		t.Fatal(err)
	}
	return dir, fullPath, childPath, full, child
}

func TestResolveChain(t *testing.T) {
	_, fullPath, childPath, full, child := writeChain(t)

	snap, info, err := ResolveChain(childPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Depth != 1 || info.Tip == nil || info.Tip.Meta.ID != child.Meta.ID {
		t.Fatalf("chain info = %+v", info)
	}
	if len(info.Files) != 2 || info.Files[0] != fullPath || info.Files[1] != childPath {
		t.Fatalf("chain files = %v", info.Files)
	}
	if snap.Meta.ID != child.Meta.ID || snap.Meta.Events != child.Meta.Events {
		t.Fatalf("snapshot meta = %+v", snap.Meta)
	}
	pool := poolOf(full, child)
	for si := range child.Shards {
		for pi := range child.Shards[si].Preds {
			want := blobOf(&child.Shards[si].Preds[pi], pool)
			got := snap.Shards[si].Preds[pi].State
			if !bytes.Equal(want, got) {
				t.Fatalf("shard %d pred %d blob differs (%d vs %d bytes)", si, pi, len(got), len(want))
			}
		}
	}

	// Resolving the full directly is a single-file chain.
	snapF, infoF, err := ResolveChain(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	if infoF.Depth != 0 || len(infoF.Files) != 1 {
		t.Fatalf("full chain info = %+v", infoF)
	}
	if snapF.Meta.ID != full.Meta.ID {
		t.Fatalf("full snapshot id = %s", snapF.Meta.ID)
	}
}

func TestResolveChainRejectsBrokenChains(t *testing.T) {
	t.Run("missing parent file", func(t *testing.T) {
		_, fullPath, childPath, _, _ := writeChain(t)
		if err := os.Remove(fullPath); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ResolveChain(childPath); err == nil ||
			!strings.Contains(err.Error(), "chain broken") {
			t.Fatalf("got %v, want chain-broken error", err)
		}
	})
	t.Run("missing chunk", func(t *testing.T) {
		dir := t.TempDir()
		full := sampleFull()
		if _, err := WriteDeltaFileAtomic(dir, full); err != nil {
			t.Fatal(err)
		}
		child := sampleChild(full)
		// Point one reference at a hash no ancestor carries.
		c := &child.Shards[0].Preds[0].Chunks[0]
		c.Hash[0] ^= 0xFF
		childPath, err := WriteDeltaFileAtomic(dir, child)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ResolveChain(childPath); err == nil ||
			!strings.Contains(err.Error(), "missing from chain") {
			t.Fatalf("got %v, want missing-chunk error", err)
		}
	})
	t.Run("corrupt manifest chunk hash", func(t *testing.T) {
		dir := t.TempDir()
		full := sampleFull()
		// An inline chunk whose recorded hash does not match its bytes:
		// the file CRC is consistent (the lie is in the manifest itself),
		// so only per-chunk verification can catch it.
		full.Shards[0].Preds[0].Chunks[1].Hash[3] ^= 0x10
		path, err := WriteDeltaFileAtomic(dir, full)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ResolveChain(path); !errors.Is(err, ErrChecksum) {
			t.Fatalf("got %v, want ErrChecksum", err)
		}
	})
	t.Run("reference crc mismatch", func(t *testing.T) {
		dir := t.TempDir()
		full := sampleFull()
		if _, err := WriteDeltaFileAtomic(dir, full); err != nil {
			t.Fatal(err)
		}
		child := sampleChild(full)
		c := &child.Shards[0].Preds[0].Chunks[0] // a reference
		c.CRC ^= 0xDEAD
		childPath, err := WriteDeltaFileAtomic(dir, child)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ResolveChain(childPath); !errors.Is(err, ErrChecksum) {
			t.Fatalf("got %v, want ErrChecksum", err)
		}
	})
	t.Run("depth gap", func(t *testing.T) {
		dir := t.TempDir()
		full := sampleFull()
		if _, err := WriteDeltaFileAtomic(dir, full); err != nil {
			t.Fatal(err)
		}
		child := sampleChild(full)
		child.Meta.Depth = 5
		childPath, err := WriteDeltaFileAtomic(dir, child)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ResolveChain(childPath); err == nil ||
			!strings.Contains(err.Error(), "chain depth") {
			t.Fatalf("got %v, want depth error", err)
		}
	})
}

func TestLatestAnyAndSweepSuperseded(t *testing.T) {
	dir := t.TempDir()
	if _, err := LatestAny(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("LatestAny on empty dir = %v, want fs.ErrNotExist", err)
	}

	// A legacy snapshot at 240 events, then a chain reaching 1750.
	v1Path, _ := placeLegacy(t, dir)
	full := sampleFull()
	fullPath, err := WriteDeltaFileAtomic(dir, full)
	if err != nil {
		t.Fatal(err)
	}
	child := sampleChild(full)
	childPath, err := WriteDeltaFileAtomic(dir, child)
	if err != nil {
		t.Fatal(err)
	}

	latest, err := LatestAny(dir)
	if err != nil {
		t.Fatal(err)
	}
	if latest != childPath {
		t.Fatalf("LatestAny = %s, want %s", latest, childPath)
	}

	found, err := FindByID(dir, full.Meta.ID)
	if err != nil || found != fullPath {
		t.Fatalf("FindByID = %s, %v; want %s", found, err, fullPath)
	}
	if _, err := FindByID(dir, "ffffffffffffffff"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("FindByID unknown = %v, want fs.ErrNotExist", err)
	}

	// A new full at higher event count supersedes everything before it.
	super := sampleFull()
	super.Shards[0].Events = 9000
	super.Meta.CreatedUnixNano += 10
	superPath, err := WriteDeltaFileAtomic(dir, super)
	if err != nil {
		t.Fatal(err)
	}
	removed, err := SweepSuperseded(dir, superPath, super.Meta.Events)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 3 {
		t.Fatalf("SweepSuperseded removed %d, want 3", removed)
	}
	for _, gone := range []string{v1Path, fullPath, childPath} {
		if _, err := os.Stat(gone); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%s survived the sweep", filepath.Base(gone))
		}
	}
	if _, err := os.Stat(superPath); err != nil {
		t.Fatalf("sweep removed the new full: %v", err)
	}
}
