package snapshot

// Chain resolution: materializing `full + deltas → Snapshot`. A delta
// checkpoint stores only the chunks that changed (or first appeared)
// since its parent; everything else is a hash reference into some
// ancestor. Resolving walks parent IDs back to the chain's full root,
// pools every inline chunk by hash, then reassembles the tip's canonical
// SaveState blobs by concatenating header and chunk bytes — verifying
// each chunk's CRC-64 (and, for inline chunks, its content hash) on the
// way, so a corrupt or incomplete chain is rejected rather than restored.

import (
	"fmt"
	"path/filepath"
	"strings"
)

// ChainInfo describes how a checkpoint was materialized.
type ChainInfo struct {
	// Files is the resolved chain, root (full) first, tip last. A legacy
	// .vpsnap snapshot or a chain root is a single-element chain.
	Files []string
	// Depth is the number of delta links in the chain (0 for a full).
	Depth int
	// Tip is the decoded tip manifest; nil for a legacy .vpsnap file.
	Tip *Delta
}

// ResolveChain reads the checkpoint at path and materializes its full
// state. A .vpdelta file has its chain walked (parents are located by
// content ID in the same directory) and its predictor state blobs
// reassembled from inline and referenced chunks; a legacy .vpsnap file
// is decoded as-is. Both yield the same Snapshot for the same logical
// state, which is all restore, warm replay and vpstate consume.
func ResolveChain(path string) (*Snapshot, *ChainInfo, error) {
	if strings.HasSuffix(path, Ext) {
		s, err := ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		return s, &ChainInfo{Files: []string{path}}, nil
	}
	dir := filepath.Dir(path)

	// Walk tip → root, prepending so the slices end up root-first.
	var files []string
	var chain []*Delta
	seen := make(map[string]bool)
	cur := path
	for {
		d, err := ReadDeltaFile(cur)
		if err != nil {
			return nil, nil, err
		}
		if seen[d.Meta.ID] {
			return nil, nil, fmt.Errorf("snapshot: checkpoint chain cycle at id %s", d.Meta.ID)
		}
		seen[d.Meta.ID] = true
		files = append([]string{cur}, files...)
		chain = append([]*Delta{d}, chain...)
		if len(chain) > maxChainDepth {
			return nil, nil, fmt.Errorf("snapshot: checkpoint chain longer than %d", maxChainDepth)
		}
		if d.Meta.ParentID == "" {
			break
		}
		parent, err := FindByID(dir, d.Meta.ParentID)
		if err != nil {
			return nil, nil, fmt.Errorf("snapshot: chain broken at %s: parent %s: %w",
				filepath.Base(cur), d.Meta.ParentID, err)
		}
		cur = parent
	}

	tip := chain[len(chain)-1]
	// Each link must extend its parent: depth increments along the walk
	// and the predictor sets must agree, or the references cannot mean
	// what the tip thinks they mean.
	for i := 1; i < len(chain); i++ {
		p, c := chain[i-1], chain[i]
		if c.Meta.Depth != p.Meta.Depth+1 {
			return nil, nil, fmt.Errorf("snapshot: chain depth %d follows depth %d (%s after %s)",
				c.Meta.Depth, p.Meta.Depth, c.Meta.ID, p.Meta.ID)
		}
		if len(c.Meta.Predictors) != len(p.Meta.Predictors) {
			return nil, nil, fmt.Errorf("snapshot: chain predictor set changed at %s", c.Meta.ID)
		}
		for j := range c.Meta.Predictors {
			if c.Meta.Predictors[j] != p.Meta.Predictors[j] {
				return nil, nil, fmt.Errorf("snapshot: chain predictor set changed at %s", c.Meta.ID)
			}
		}
	}

	// Pool every inline chunk in the chain by content hash, verifying
	// integrity once per stored chunk. References anywhere in the tip may
	// point at any ancestor (cross-interval and cross-shard dedup), so the
	// pool is global to the chain.
	pool := make(map[[HashSize]byte][]byte)
	for fi, d := range chain {
		for si := range d.Shards {
			for pi := range d.Shards[si].Preds {
				ps := &d.Shards[si].Preds[pi]
				for ci := range ps.Chunks {
					c := &ps.Chunks[ci]
					if !c.Inline() {
						continue
					}
					hash, crc := ChunkKey(c.Data)
					if hash != c.Hash || crc != c.CRC {
						return nil, nil, fmt.Errorf(
							"snapshot: chunk %x corrupt in %s (shard %d pred %q chunk %d): %w",
							c.Hash[:4], filepath.Base(files[fi]), si, ps.Name, ci, ErrChecksum)
					}
					pool[c.Hash] = c.Data
				}
			}
		}
	}

	// Materialize the tip: every predictor blob is header + chunks, with
	// references resolved from the pool and re-verified against the
	// manifest's CRC and length.
	snap := &Snapshot{
		Meta: Meta{
			FormatVersion:   tip.Meta.FormatVersion,
			ID:              tip.Meta.ID,
			CreatedUnixNano: tip.Meta.CreatedUnixNano,
			Events:          tip.Meta.Events,
			Shards:          tip.Meta.Shards,
			Predictors:      tip.Meta.Predictors,
		},
	}
	for si := range tip.Shards {
		dsh := &tip.Shards[si]
		sh := ShardState{Shard: dsh.Shard, Events: dsh.Events, PCs: dsh.PCs}
		for pi := range dsh.Preds {
			ps := &dsh.Preds[pi]
			size := len(ps.Header)
			for ci := range ps.Chunks {
				size += ps.Chunks[ci].Len
			}
			blob := make([]byte, 0, size)
			blob = append(blob, ps.Header...)
			for ci := range ps.Chunks {
				c := &ps.Chunks[ci]
				data := c.Data
				if data == nil {
					var ok bool
					data, ok = pool[c.Hash]
					if !ok {
						return nil, nil, fmt.Errorf(
							"snapshot: chunk %x missing from chain (tip %s shard %d pred %q chunk %d)",
							c.Hash[:4], tip.Meta.ID, si, ps.Name, ci)
					}
					if len(data) != c.Len || crcOf(data) != c.CRC {
						return nil, nil, fmt.Errorf(
							"snapshot: chunk %x reference mismatch (tip %s shard %d pred %q chunk %d): %w",
							c.Hash[:4], tip.Meta.ID, si, ps.Name, ci, ErrChecksum)
					}
				}
				blob = append(blob, data...)
			}
			sh.Preds = append(sh.Preds, PredState{
				Name:    ps.Name,
				Correct: ps.Correct,
				Total:   ps.Total,
				State:   blob,
			})
		}
		snap.Shards = append(snap.Shards, sh)
	}
	return snap, &ChainInfo{Files: files, Depth: tip.Meta.Depth, Tip: tip}, nil
}
