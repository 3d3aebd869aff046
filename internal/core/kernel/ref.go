package kernel

// The *Ref functions are the scalar, obviously-correct twins of the
// exported kernels. They are the parity oracle: the property tests
// and FuzzKernelCompareCount assert the SWAR kernels produce
// bit-identical hits and counts on every input. They are not called
// from the hot path.

// CompareConstCountRef is the scalar reference for CompareConstCount.
func CompareConstCountRef(values []uint64, pred uint64, hits []byte) uint64 {
	var cnt uint64
	for k, v := range values {
		if v == pred {
			hits[k] = 1
			cnt++
		} else {
			hits[k] = 0
		}
	}
	return cnt
}

// CompareConstCountLastRef is the scalar reference for
// CompareConstCountLast.
func CompareConstCountLastRef(values []uint64, pred uint64, hits []byte) (uint64, int) {
	var cnt uint64
	last := -1
	for k, v := range values {
		if v == pred {
			hits[k] = 1
			cnt++
		} else {
			hits[k] = 0
			last = k
		}
	}
	return cnt, last
}

// ConstPrefixLenRef is the scalar reference for ConstPrefixLen.
func ConstPrefixLenRef(values []uint64, v uint64) int {
	for k, w := range values {
		if w != v {
			return k
		}
	}
	return len(values)
}

// CompareAdjacentCountRef is the scalar reference for
// CompareAdjacentCount.
func CompareAdjacentCountRef(prev uint64, values []uint64, hits []byte) uint64 {
	var cnt uint64
	for k, v := range values {
		if v == prev {
			hits[k] = 1
			cnt++
		} else {
			hits[k] = 0
		}
		prev = v
	}
	return cnt
}

// CompareStrideCountRef is the scalar reference for
// CompareStrideCount: it replays the always-update stride predictor
// one event at a time.
func CompareStrideCountRef(last, stride uint64, values []uint64, hits []byte) uint64 {
	var cnt uint64
	for k, v := range values {
		if v == last+stride {
			hits[k] = 1
			cnt++
		} else {
			hits[k] = 0
		}
		stride = v - last
		last = v
	}
	return cnt
}

// StridePrefixLenRef is the scalar reference for StridePrefixLen.
func StridePrefixLenRef(prev, stride uint64, values []uint64) int {
	for k, v := range values {
		if v-prev != stride {
			return k
		}
		prev = v
	}
	return len(values)
}

// ScatterRef is the scalar reference for Scatter.
func ScatterRef(hits []byte, idx []int32, bits []uint64) {
	n := len(hits)
	if len(idx) < n {
		n = len(idx)
	}
	for k := 0; k < n; k++ {
		if hits[k] != 0 {
			i := uint32(idx[k])
			bits[i>>6] |= 1 << (i & 63)
		}
	}
}
