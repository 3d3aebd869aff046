package snapshot

import (
	"encoding/binary"
	"errors"
	"hash/crc64"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// legacyBytes is the raw legacy fixture image the decoder tests mutate.
func legacyBytes(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile(legacyFixture)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	data := legacyBytes(t)

	t.Run("bad magic", func(t *testing.T) {
		mut := append([]byte(nil), data...)
		mut[0] ^= 0x40
		if _, err := DecodeBytes(mut); err == nil || errors.Is(err, ErrChecksum) {
			t.Fatalf("got %v, want a magic error", err)
		}
	})
	t.Run("flipped payload byte fails checksum", func(t *testing.T) {
		mut := append([]byte(nil), data...)
		mut[len(Magic)+3] ^= 0x01
		if _, err := DecodeBytes(mut); !errors.Is(err, ErrChecksum) {
			t.Fatalf("got %v, want ErrChecksum", err)
		}
	})
	t.Run("flipped trailer byte fails checksum", func(t *testing.T) {
		mut := append([]byte(nil), data...)
		mut[len(mut)-1] ^= 0x80
		if _, err := DecodeBytes(mut); !errors.Is(err, ErrChecksum) {
			t.Fatalf("got %v, want ErrChecksum", err)
		}
	})
	t.Run("truncations", func(t *testing.T) {
		for cut := 0; cut < len(data); cut++ {
			if _, err := DecodeBytes(data[:cut]); err == nil {
				t.Fatalf("truncation to %d bytes accepted", cut)
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		if _, err := DecodeBytes(append(append([]byte(nil), data...), 0xEE)); err == nil {
			t.Fatal("trailing garbage accepted")
		}
	})
}

// rewrap recomputes the CRC trailer over a mutated payload, building an
// internally consistent file so structural validation (not the checksum)
// must catch the damage.
func rewrap(payload []byte) []byte {
	out := append([]byte(nil), Magic...)
	out = append(out, payload...)
	var trailer [8]byte
	binary.LittleEndian.PutUint64(trailer[:], crc64.Checksum(payload, crcTable))
	return append(out, trailer[:]...)
}

func TestDecodeRejectsWrongVersion(t *testing.T) {
	data := legacyBytes(t)
	payload := append([]byte(nil), data[len(Magic):len(data)-8]...)
	if payload[0] != FormatVersion {
		t.Fatalf("version byte is %d, layout changed?", payload[0])
	}
	payload[0] = FormatVersion + 1
	if _, err := DecodeBytes(rewrap(payload)); err == nil ||
		!strings.Contains(err.Error(), "unsupported format version") {
		t.Fatalf("got %v, want unsupported-version error", err)
	}
}

func TestDecodeRejectsTruncatedVarint(t *testing.T) {
	data := legacyBytes(t)
	payload := append([]byte(nil), data[len(Magic):len(data)-8]...)
	// Cut the payload mid-structure but keep a valid checksum: the error
	// must come from varint/structure parsing, proving decode does not
	// rely on the checksum alone to catch short input.
	short := payload[:len(payload)/2]
	if _, err := DecodeBytes(rewrap(short)); err == nil {
		t.Fatal("truncated payload with valid checksum accepted")
	}
	// A dangling continuation byte at the end of the payload.
	cont := append(append([]byte(nil), payload[:3]...), 0x80)
	if _, err := DecodeBytes(rewrap(cont)); err == nil {
		t.Fatal("dangling varint continuation accepted")
	}
}

func TestDecodeRejectsHostileCounts(t *testing.T) {
	// Claim 2^40 predictors in an otherwise tiny file: the count limit
	// must reject it without attempting the allocation.
	var payload []byte
	payload = binary.AppendUvarint(payload, FormatVersion)
	payload = binary.AppendUvarint(payload, 0)     // created
	payload = binary.AppendUvarint(payload, 0)     // events
	payload = binary.AppendUvarint(payload, 1)     // shards
	payload = binary.AppendUvarint(payload, 1<<40) // predictors
	if _, err := DecodeBytes(rewrap(payload)); err == nil {
		t.Fatal("absurd predictor count accepted")
	}
	// Claim more PCs than the file has bytes left.
	payload = nil
	payload = binary.AppendUvarint(payload, FormatVersion)
	payload = binary.AppendUvarint(payload, 0) // created
	payload = binary.AppendUvarint(payload, 0) // events
	payload = binary.AppendUvarint(payload, 1) // shards
	payload = binary.AppendUvarint(payload, 1) // predictors
	payload = binary.AppendUvarint(payload, 1)
	payload = append(payload, 'l')
	payload = binary.AppendUvarint(payload, 0)     // shard id
	payload = binary.AppendUvarint(payload, 0)     // shard events
	payload = binary.AppendUvarint(payload, 1<<30) // npcs far beyond payload size
	if _, err := DecodeBytes(rewrap(payload)); err == nil {
		t.Fatal("PC count beyond payload size accepted")
	}
}

func TestFileRoundTripAndLatest(t *testing.T) {
	dir := t.TempDir()
	if _, err := LatestAny(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("LatestAny on empty dir = %v, want fs.ErrNotExist", err)
	}

	r1 := sampleFull()
	p1, err := WriteDeltaFileAtomic(dir, r1)
	if err != nil {
		t.Fatal(err)
	}
	r2 := sampleFull()
	r2.Shards[0].Events += 500
	r2.Shards[0].Preds[0].Correct += 123
	p2, err := WriteDeltaFileAtomic(dir, r2)
	if err != nil {
		t.Fatal(err)
	}

	got, err := ReadDeltaFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.ID != r1.Meta.ID || got.Meta.Events != r1.Meta.Events {
		t.Fatalf("read back %+v, want %+v", got.Meta, r1.Meta)
	}

	latest, err := LatestAny(dir)
	if err != nil {
		t.Fatal(err)
	}
	if latest != p2 {
		t.Fatalf("LatestAny = %s, want %s", latest, p2)
	}

	// No temp files may survive a successful write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".vpdelta-tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}

	// SweepTemp removes orphaned in-progress files of either writer and
	// nothing else.
	strays := []string{filepath.Join(dir, ".vpdelta-tmp-12345"), filepath.Join(dir, ".vpsnap-tmp-12345")}
	for _, stray := range strays {
		if err := os.WriteFile(stray, []byte("partial"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := SweepTemp(dir)
	if err != nil {
		t.Fatal(err)
	}
	if removed != len(strays) {
		t.Fatalf("SweepTemp removed %d files, want %d", removed, len(strays))
	}
	for _, stray := range strays {
		if _, err := os.Stat(stray); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("stray temp file %s survived the sweep", stray)
		}
	}
	if _, err := os.Stat(p1); err != nil {
		t.Fatalf("sweep touched a finished checkpoint: %v", err)
	}

	// A corrupted file on disk is rejected with its path in the error, by
	// the checkpoint reader and the legacy reader alike.
	for _, tc := range []struct {
		src, name string
		read      func(string) error
	}{
		{p1, "delta-99999999999999999999-corrupt.vpdelta", func(p string) error { _, err := ReadDeltaFile(p); return err }},
		{legacyFixture, "snap-99999999999999999999-corrupt.vpsnap", func(p string) error { _, err := ReadFile(p); return err }},
	} {
		raw, err := os.ReadFile(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0xFF
		bad := filepath.Join(dir, tc.name)
		if err := os.WriteFile(bad, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := tc.read(bad); err == nil || !strings.Contains(err.Error(), bad) {
			t.Fatalf("corrupt file read = %v, want error naming %s", err, bad)
		}
	}
}
