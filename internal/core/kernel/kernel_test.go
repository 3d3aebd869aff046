package kernel

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// runLengths covers the SWAR block boundaries: empty, sub-block,
// exact blocks, and odd tails around them.
var runLengths = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 63, 64, 65, 100, 255, 256}

func randRun(rng *rand.Rand, n int) []uint64 {
	values := make([]uint64, n)
	for i := range values {
		// A tiny value domain forces frequent hits and long equal
		// prefixes, so the interesting kernel paths all fire.
		switch rng.Intn(3) {
		case 0:
			values[i] = uint64(rng.Intn(4))
		case 1:
			values[i] = rng.Uint64()
		default:
			values[i] = uint64(rng.Intn(4)) * 8
		}
	}
	return values
}

func TestCompareConstCountParity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range runLengths {
		for trial := 0; trial < 50; trial++ {
			values := randRun(rng, n)
			pred := uint64(rng.Intn(4))
			if trial%5 == 0 && n > 0 {
				pred = values[rng.Intn(n)]
			}
			got := make([]byte, n)
			want := make([]byte, n)
			gc := CompareConstCount(values, pred, got)
			wc := CompareConstCountRef(values, pred, want)
			if gc != wc || !bytes.Equal(got, want) {
				t.Fatalf("n=%d pred=%d: count %d vs ref %d, hits %v vs %v", n, pred, gc, wc, got, want)
			}
			gc2, gl := CompareConstCountLast(values, pred, got)
			wc2, wl := CompareConstCountLastRef(values, pred, want)
			if gc2 != wc2 || gl != wl || !bytes.Equal(got, want) {
				t.Fatalf("fused n=%d pred=%d: (%d,%d) vs ref (%d,%d)", n, pred, gc2, gl, wc2, wl)
			}
		}
	}
}

func TestConstPrefixLenParity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range runLengths {
		for trial := 0; trial < 50; trial++ {
			v := uint64(rng.Intn(3))
			values := make([]uint64, n)
			// Constant prefix of random length, then noise.
			cut := 0
			if n > 0 {
				cut = rng.Intn(n + 1)
			}
			for i := 0; i < cut; i++ {
				values[i] = v
			}
			for i := cut; i < n; i++ {
				values[i] = rng.Uint64()
			}
			got := ConstPrefixLen(values, v)
			want := ConstPrefixLenRef(values, v)
			if got != want {
				t.Fatalf("n=%d cut=%d: ConstPrefixLen %d, ref %d", n, cut, got, want)
			}
		}
	}
}

func TestCompareAdjacentCountParity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range runLengths {
		for trial := 0; trial < 50; trial++ {
			values := randRun(rng, n)
			prev := uint64(rng.Intn(4))
			got := make([]byte, n)
			want := make([]byte, n)
			gc := CompareAdjacentCount(prev, values, got)
			wc := CompareAdjacentCountRef(prev, values, want)
			if gc != wc || !bytes.Equal(got, want) {
				t.Fatalf("n=%d prev=%d: count %d vs ref %d, hits %v vs %v", n, prev, gc, wc, got, want)
			}
		}
	}
}

func TestCompareStrideCountParity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range runLengths {
		for trial := 0; trial < 50; trial++ {
			var values []uint64
			if trial%2 == 0 {
				// Noisy arithmetic sequence: mostly strided with
				// occasional breaks, the stride predictor's habitat.
				values = make([]uint64, n)
				v := rng.Uint64()
				stride := uint64(rng.Intn(16)) - 8
				for i := range values {
					if rng.Intn(8) == 0 {
						v = rng.Uint64()
					}
					values[i] = v
					v += stride
				}
			} else {
				values = randRun(rng, n)
			}
			last := rng.Uint64()
			stride := uint64(rng.Intn(16)) - 8
			got := make([]byte, n)
			want := make([]byte, n)
			gc := CompareStrideCount(last, stride, values, got)
			wc := CompareStrideCountRef(last, stride, values, want)
			if gc != wc || !bytes.Equal(got, want) {
				t.Fatalf("n=%d: count %d vs ref %d, hits %v vs %v", n, gc, wc, got, want)
			}
			gp := StridePrefixLen(last, stride, values)
			wp := StridePrefixLenRef(last, stride, values)
			if gp != wp {
				t.Fatalf("n=%d: StridePrefixLen %d, ref %d", n, gp, wp)
			}
		}
	}
}

func TestScatterParity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range runLengths {
		for trial := 0; trial < 20; trial++ {
			hits := make([]byte, n)
			idx := make([]int32, n)
			perm := rng.Perm(n * 2)
			for i := range idx {
				hits[i] = byte(rng.Intn(2))
				idx[i] = int32(perm[i])
			}
			words := (n*2 + 63) / 64
			if words == 0 {
				words = 1
			}
			got := make([]uint64, words)
			want := make([]uint64, words)
			Scatter(hits, idx, got)
			ScatterRef(hits, idx, want)
			for w := range got {
				if got[w] != want[w] {
					t.Fatalf("n=%d word %d: %#x vs ref %#x", n, w, got[w], want[w])
				}
			}
		}
	}
}

// FuzzKernelCompareCount fuzzes the dispatched compare+count kernels
// against the scalar references over arbitrary runs and predictions.
func FuzzKernelCompareCount(f *testing.F) {
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0}, uint64(1))
	seed := make([]byte, 9*8)
	for i := 0; i < 9; i++ {
		binary.LittleEndian.PutUint64(seed[i*8:], uint64(i%3))
	}
	f.Add(seed, uint64(0))
	f.Fuzz(func(t *testing.T, raw []byte, pred uint64) {
		n := len(raw) / 8
		if n > 4096 {
			n = 4096
		}
		values := make([]uint64, n)
		for i := range values {
			values[i] = binary.LittleEndian.Uint64(raw[i*8:])
		}
		got := make([]byte, n)
		want := make([]byte, n)
		if gc, wc := CompareConstCount(values, pred, got), CompareConstCountRef(values, pred, want); gc != wc || !bytes.Equal(got, want) {
			t.Fatalf("CompareConstCount: count %d vs ref %d", gc, wc)
		}
		gc, gl := CompareConstCountLast(values, pred, got)
		wc, wl := CompareConstCountLastRef(values, pred, want)
		if gc != wc || gl != wl || !bytes.Equal(got, want) {
			t.Fatalf("CompareConstCountLast: (%d,%d) vs ref (%d,%d)", gc, gl, wc, wl)
		}
		if gp, wp := ConstPrefixLen(values, pred), ConstPrefixLenRef(values, pred); gp != wp {
			t.Fatalf("ConstPrefixLen: %d vs ref %d", gp, wp)
		}
		if gc, wc := CompareAdjacentCount(pred, values, got), CompareAdjacentCountRef(pred, values, want); gc != wc || !bytes.Equal(got, want) {
			t.Fatalf("CompareAdjacentCount: count %d vs ref %d", gc, wc)
		}
		var stride uint64
		if n > 0 {
			stride = values[0] - pred
		}
		if gc, wc := CompareStrideCount(pred, stride, values, got), CompareStrideCountRef(pred, stride, values, want); gc != wc || !bytes.Equal(got, want) {
			t.Fatalf("CompareStrideCount: count %d vs ref %d", gc, wc)
		}
		if gp, wp := StridePrefixLen(pred, stride, values), StridePrefixLenRef(pred, stride, values); gp != wp {
			t.Fatalf("StridePrefixLen: %d vs ref %d", gp, wp)
		}
	})
}

// TestKernelZeroAlloc is part of the CI zero-alloc gate: stepping the
// kernels over preallocated runs must not allocate.
func TestKernelZeroAlloc(t *testing.T) {
	values := make([]uint64, 256)
	hits := make([]byte, 256)
	idx := make([]int32, 256)
	bits := make([]uint64, 4)
	for i := range values {
		values[i] = uint64(i % 4)
		idx[i] = int32(i)
	}
	var sink uint64
	allocs := testing.AllocsPerRun(100, func() {
		sink += CompareConstCount(values, 2, hits)
		c, _ := CompareConstCountLast(values, 2, hits)
		sink += c
		sink += uint64(ConstPrefixLen(values, 0))
		sink += CompareAdjacentCount(0, values, hits)
		sink += CompareStrideCount(0, 1, values, hits)
		sink += uint64(StridePrefixLen(0, 1, values))
		Scatter(hits, idx, bits)
	})
	if allocs != 0 {
		t.Fatalf("kernel hot path allocated %.1f times per run'", allocs)
	}
	_ = sink
}

func BenchmarkKernelCompareCount(b *testing.B) {
	values := make([]uint64, 4096)
	hits := make([]byte, 4096)
	for i := range values {
		values[i] = uint64(i % 4)
	}
	b.SetBytes(4096 * 8)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += CompareConstCount(values, 2, hits)
	}
	_ = sink
}

func BenchmarkKernelCompareCountRef(b *testing.B) {
	values := make([]uint64, 4096)
	hits := make([]byte, 4096)
	for i := range values {
		values[i] = uint64(i % 4)
	}
	b.SetBytes(4096 * 8)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += CompareConstCountRef(values, 2, hits)
	}
	_ = sink
}
