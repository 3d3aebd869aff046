package snapshot

// Delta (v2) snapshot container, the only checkpoint format written: an
// incremental checkpoint whose predictor state arrives as
// content-addressed chunks. A chain root (depth 0, no parent) holds every
// chunk inline; it is what a "full" checkpoint is. Each chunk is an
// exact byte range of the predictor's canonical SaveState stream (split
// at per-PC record boundaries by internal/core's chunked save), named by
// the truncated SHA-256 of its bytes and carrying its own CRC-64. A
// chunk is either written inline or referenced by hash against an
// ancestor checkpoint in the same chain, so regions that did not change
// between cuts — or that are identical across shards — are stored once.
//
// On-disk layout mirrors the legacy VPSNAP01 container:
//
//	8 bytes   magic "VPDELT01"
//	payload   varint-packed sections (below)
//	8 bytes   little-endian CRC-64/ECMA of the payload
//
// The payload is: format version, creation time, total events, parent
// snapshot ID (empty = full checkpoint, the root of a chain), chain
// depth, shard count, the predictor name list, then one section per
// shard: shard id, events, sorted PCs (delta-encoded), and per predictor
// its tallies, the chunked-save header blob, and the chunk table. Per
// chunk: flags (bit0 = bytes inline), 16-byte hash, CRC-64, raw length,
// first PC, record count, then the bytes when inline.
//
// A delta file is self-describing but not self-contained: materializing
// its state needs the ancestors its references point into — the chain
// resolver in chain.go walks parent IDs and reassembles the canonical
// SaveState blobs, verifying every chunk's CRC on the way.

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
)

// DeltaMagic is the v2 file signature.
const DeltaMagic = "VPDELT01"

// DeltaFormatVersion is the payload schema version written by EncodeDelta.
const DeltaFormatVersion = 2

// maxChainDepth bounds parent walks, so a corrupt or adversarial parent
// graph cannot loop forever.
const maxChainDepth = 4096

// HashSize is the stored prefix of the SHA-256 chunk hash. 128 bits keeps
// accidental collision probability negligible at any realistic chunk
// count while halving the per-chunk overhead.
const HashSize = 16

// ChunkRef is one content-addressed chunk of a predictor's state stream.
type ChunkRef struct {
	// Hash is the truncated SHA-256 of the chunk bytes — the chunk's
	// identity for dedup and for resolving references.
	Hash [HashSize]byte
	// CRC is the CRC-64/ECMA of the chunk bytes, verified independently
	// of the hash when a chain is resolved.
	CRC uint64
	// Len is the chunk's byte length.
	Len int
	// FirstPC and Records locate the chunk within the predictor's sorted
	// per-PC record sequence (manifest metadata for tooling; the bytes
	// alone reconstruct the stream).
	FirstPC uint64
	Records int
	// Data holds the chunk bytes when inline; nil means the chunk is a
	// reference resolved by Hash against an ancestor in the chain.
	Data []byte
}

// Inline reports whether the chunk's bytes are stored in this file.
func (c *ChunkRef) Inline() bool { return c.Data != nil }

// ChunkKey computes a chunk's content address: truncated SHA-256 plus
// CRC-64/ECMA of its bytes.
func ChunkKey(data []byte) (hash [HashSize]byte, crc uint64) {
	sum := sha256.Sum256(data)
	copy(hash[:], sum[:HashSize])
	return hash, crcOf(data)
}

// crcOf is the per-chunk CRC-64/ECMA.
func crcOf(data []byte) uint64 { return crc64.Checksum(data, crcTable) }

// MakeChunk builds an inline ChunkRef, copying data.
func MakeChunk(firstPC uint64, records int, data []byte) ChunkRef {
	h, crc := ChunkKey(data)
	return ChunkRef{
		Hash:    h,
		CRC:     crc,
		Len:     len(data),
		FirstPC: firstPC,
		Records: records,
		Data:    append([]byte(nil), data...),
	}
}

// DeltaPred is one predictor's state within one shard of a delta
// checkpoint: tallies, the chunked-save header bytes, and the chunk
// table. Concatenating Header with every chunk's bytes (after resolving
// references) yields the predictor's canonical SaveState blob. Opaque
// predictors (no chunked save) appear as an empty header plus a single
// chunk holding the whole blob.
type DeltaPred struct {
	Name    string
	Correct uint64
	Total   uint64
	Header  []byte
	Chunks  []ChunkRef
}

// DeltaShard is one shard's section of a delta checkpoint.
type DeltaShard struct {
	Shard  int
	Events uint64
	PCs    []uint64
	Preds  []DeltaPred
}

// DeltaMeta describes a delta checkpoint as a whole.
type DeltaMeta struct {
	FormatVersion int
	// ID is the content-addressed file identifier (hex CRC-64 of the
	// payload), filled by EncodeDelta and DecodeDelta.
	ID string
	// ParentID names the previous checkpoint in the chain; empty for a
	// full checkpoint (chain root).
	ParentID string
	// Depth is the number of delta links from the chain root: 0 for a
	// full checkpoint, parent depth + 1 otherwise.
	Depth           int
	CreatedUnixNano int64
	Events          uint64
	Shards          int
	Predictors      []string
}

// Delta is a fully decoded v2 checkpoint file.
type Delta struct {
	Meta   DeltaMeta
	Shards []DeltaShard
}

// ChunkStats tallies a delta's chunk table: how many chunks (and bytes)
// were written inline versus referenced from ancestors.
type ChunkStats struct {
	Inline      int
	InlineBytes int
	Refs        int
	RefBytes    int
}

// Stats sums the chunk tables across all shards and predictors.
func (d *Delta) Stats() ChunkStats {
	var st ChunkStats
	for i := range d.Shards {
		for j := range d.Shards[i].Preds {
			for k := range d.Shards[i].Preds[j].Chunks {
				c := &d.Shards[i].Preds[j].Chunks[k]
				if c.Inline() {
					st.Inline++
					st.InlineBytes += c.Len
				} else {
					st.Refs++
					st.RefBytes += c.Len
				}
			}
		}
	}
	return st
}

// crcWriter streams bytes through to w while accumulating the payload
// CRC, so encoding never holds more than one section in memory.
type crcWriter struct {
	w   io.Writer
	crc uint64
	n   int
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc = crc64.Update(cw.crc, crcTable, p)
	cw.n += len(p)
	return cw.w.Write(p)
}

// EncodeDelta streams the checkpoint to w and returns its
// content-addressed ID. The write is io.Writer-driven with bounded
// scratch: sections are varint-packed into a small reused buffer and
// chunk bytes pass straight from their slices, so no full file image is
// ever materialized. Input is validated rather than repaired: shard
// sections must be ordered and gap-free, PCs strictly ascending, names
// consistent, and every inline chunk's length must match its data.
func EncodeDelta(w io.Writer, d *Delta) (string, error) {
	if len(d.Shards) == 0 || len(d.Shards) > maxShards {
		return "", fmt.Errorf("snapshot: invalid shard count %d", len(d.Shards))
	}
	if len(d.Meta.Predictors) == 0 || len(d.Meta.Predictors) > maxPredictors {
		return "", fmt.Errorf("snapshot: invalid predictor count %d", len(d.Meta.Predictors))
	}
	if d.Meta.ParentID == "" && d.Meta.Depth != 0 {
		return "", fmt.Errorf("snapshot: full checkpoint with depth %d", d.Meta.Depth)
	}
	if d.Meta.ParentID != "" && d.Meta.Depth == 0 {
		return "", errors.New("snapshot: delta checkpoint with depth 0")
	}
	if _, err := io.WriteString(w, DeltaMagic); err != nil {
		return "", err
	}
	cw := &crcWriter{w: w}
	var scratch []byte
	put := func(vals ...uint64) error {
		scratch = scratch[:0]
		for _, v := range vals {
			scratch = binary.AppendUvarint(scratch, v)
		}
		_, err := cw.Write(scratch)
		return err
	}
	putBlob := func(b []byte) error {
		if err := put(uint64(len(b))); err != nil {
			return err
		}
		_, err := cw.Write(b)
		return err
	}

	var events uint64
	for _, sh := range d.Shards {
		events += sh.Events
	}
	if err := put(DeltaFormatVersion, uint64(d.Meta.CreatedUnixNano), events); err != nil {
		return "", err
	}
	if err := putBlob([]byte(d.Meta.ParentID)); err != nil {
		return "", err
	}
	if err := put(uint64(d.Meta.Depth), uint64(len(d.Shards)), uint64(len(d.Meta.Predictors))); err != nil {
		return "", err
	}
	for _, name := range d.Meta.Predictors {
		if len(name) == 0 || len(name) > maxNameLen {
			return "", fmt.Errorf("snapshot: invalid predictor name %q", name)
		}
		if err := putBlob([]byte(name)); err != nil {
			return "", err
		}
	}
	for i, sh := range d.Shards {
		if sh.Shard != i {
			return "", fmt.Errorf("snapshot: shard section %d has id %d (must be ordered, gap-free)", i, sh.Shard)
		}
		if len(sh.Preds) != len(d.Meta.Predictors) {
			return "", fmt.Errorf("snapshot: shard %d has %d predictors, bank has %d",
				i, len(sh.Preds), len(d.Meta.Predictors))
		}
		if err := put(uint64(sh.Shard), sh.Events, uint64(len(sh.PCs))); err != nil {
			return "", err
		}
		var prev uint64
		for j, pc := range sh.PCs {
			if j > 0 && pc <= prev {
				return "", fmt.Errorf("snapshot: shard %d PCs not strictly ascending", i)
			}
			if err := put(pc - prev); err != nil {
				return "", err
			}
			prev = pc
		}
		for j := range sh.Preds {
			ps := &sh.Preds[j]
			if ps.Name != d.Meta.Predictors[j] {
				return "", fmt.Errorf("snapshot: shard %d predictor %d is %q, bank says %q",
					i, j, ps.Name, d.Meta.Predictors[j])
			}
			if err := put(ps.Correct, ps.Total); err != nil {
				return "", err
			}
			if err := putBlob(ps.Header); err != nil {
				return "", err
			}
			if err := put(uint64(len(ps.Chunks))); err != nil {
				return "", err
			}
			for k := range ps.Chunks {
				c := &ps.Chunks[k]
				flags := uint64(0)
				if c.Inline() {
					flags |= 1
					if len(c.Data) != c.Len {
						return "", fmt.Errorf("snapshot: shard %d pred %q chunk %d: len %d != %d data bytes",
							i, ps.Name, k, c.Len, len(c.Data))
					}
				}
				if err := put(flags); err != nil {
					return "", err
				}
				if _, err := cw.Write(c.Hash[:]); err != nil {
					return "", err
				}
				var crcb [8]byte
				binary.LittleEndian.PutUint64(crcb[:], c.CRC)
				if _, err := cw.Write(crcb[:]); err != nil {
					return "", err
				}
				if err := put(uint64(c.Len), c.FirstPC, uint64(c.Records)); err != nil {
					return "", err
				}
				if c.Inline() {
					if _, err := cw.Write(c.Data); err != nil {
						return "", err
					}
				}
			}
		}
	}

	id := fmt.Sprintf("%016x", cw.crc)
	var trailer [8]byte
	binary.LittleEndian.PutUint64(trailer[:], cw.crc)
	if _, err := w.Write(trailer[:]); err != nil {
		return "", err
	}
	d.Meta.FormatVersion = DeltaFormatVersion
	d.Meta.ID = id
	d.Meta.Events = events
	d.Meta.Shards = len(d.Shards)
	return id, nil
}

// DecodeDelta reads and verifies one v2 checkpoint file.
func DecodeDelta(r io.Reader) (*Delta, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("snapshot: reading magic: %w", err)
	}
	if string(magic[:]) != DeltaMagic {
		return nil, fmt.Errorf("snapshot: bad magic %q", magic[:])
	}
	rest, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return decodeDeltaPayload(rest)
}

// DecodeDeltaBytes decodes a v2 checkpoint from an in-memory image.
func DecodeDeltaBytes(data []byte) (*Delta, error) {
	if len(data) < len(DeltaMagic) {
		return nil, fmt.Errorf("snapshot: %w", io.ErrUnexpectedEOF)
	}
	if string(data[:len(DeltaMagic)]) != DeltaMagic {
		return nil, fmt.Errorf("snapshot: bad magic %q", data[:len(DeltaMagic)])
	}
	return decodeDeltaPayload(data[len(DeltaMagic):])
}

func decodeDeltaPayload(b []byte) (*Delta, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("snapshot: %w", io.ErrUnexpectedEOF)
	}
	payload, trailer := b[:len(b)-8], b[len(b)-8:]
	crc := crc64.Checksum(payload, crcTable)
	if binary.LittleEndian.Uint64(trailer) != crc {
		return nil, ErrChecksum
	}

	d := &sdec{p: payload}
	out := &Delta{}
	version := d.uvarint()
	if d.err == nil && version != DeltaFormatVersion {
		return nil, fmt.Errorf("snapshot: unsupported delta format version %d (supported: %d)",
			version, DeltaFormatVersion)
	}
	out.Meta.FormatVersion = int(version)
	out.Meta.ID = fmt.Sprintf("%016x", crc)
	out.Meta.CreatedUnixNano = int64(d.uvarint())
	out.Meta.Events = d.uvarint()
	out.Meta.ParentID = string(d.bytes(d.count(maxNameLen)))
	out.Meta.Depth = int(d.count(maxChainDepth))
	if d.err == nil {
		if out.Meta.ParentID == "" && out.Meta.Depth != 0 {
			return nil, fmt.Errorf("snapshot: full checkpoint with depth %d", out.Meta.Depth)
		}
		if out.Meta.ParentID != "" && out.Meta.Depth == 0 {
			return nil, errors.New("snapshot: delta checkpoint with depth 0")
		}
	}
	nshards := d.count(maxShards)
	npred := d.count(maxPredictors)
	if d.err == nil && (nshards == 0 || npred == 0) {
		return nil, errors.New("snapshot: empty shard or predictor list")
	}
	out.Meta.Shards = int(nshards)
	for i := uint64(0); i < npred && d.err == nil; i++ {
		out.Meta.Predictors = append(out.Meta.Predictors, string(d.bytes(d.count(maxNameLen))))
	}

	var sumEvents uint64
	for i := uint64(0); i < nshards && d.err == nil; i++ {
		sh := DeltaShard{Shard: int(d.uvarint())}
		if d.err == nil && sh.Shard != int(i) {
			return nil, fmt.Errorf("snapshot: shard section %d has id %d", i, sh.Shard)
		}
		sh.Events = d.uvarint()
		sumEvents += sh.Events
		npc := d.count(uint64(len(d.p)))
		var pc uint64
		for j := uint64(0); j < npc && d.err == nil; j++ {
			next := pc + d.uvarint()
			if j > 0 && next <= pc {
				return nil, fmt.Errorf("snapshot: shard %d PCs not strictly ascending", i)
			}
			pc = next
			sh.PCs = append(sh.PCs, pc)
		}
		for j := uint64(0); j < npred && d.err == nil; j++ {
			ps := DeltaPred{Name: out.Meta.Predictors[j]}
			ps.Correct = d.uvarint()
			ps.Total = d.uvarint()
			ps.Header = d.bytes(d.count(uint64(len(d.p))))
			// Every chunk costs at least its fixed-size hash and CRC, so
			// the remaining payload bounds the believable chunk count.
			nchunks := d.count(uint64(len(d.p))/(HashSize+8) + 1)
			for k := uint64(0); k < nchunks && d.err == nil; k++ {
				var c ChunkRef
				flags := d.uvarint()
				copy(c.Hash[:], d.bytes(HashSize))
				crcb := d.bytes(8)
				if d.err == nil {
					c.CRC = binary.LittleEndian.Uint64(crcb)
				}
				c.Len = int(d.count(1 << 32))
				c.FirstPC = d.uvarint()
				c.Records = int(d.count(1 << 32))
				if flags&1 != 0 {
					c.Data = d.bytes(uint64(c.Len))
					if c.Data == nil && c.Len > 0 {
						break
					}
					if c.Data == nil {
						c.Data = []byte{} // zero-length inline chunk stays inline
					}
				}
				ps.Chunks = append(ps.Chunks, c)
			}
			sh.Preds = append(sh.Preds, ps)
		}
		out.Shards = append(out.Shards, sh)
	}
	if d.err != nil {
		return nil, fmt.Errorf("snapshot: %w", d.err)
	}
	if len(d.p) != 0 {
		return nil, fmt.Errorf("snapshot: %d trailing bytes after last shard", len(d.p))
	}
	if sumEvents != out.Meta.Events {
		return nil, fmt.Errorf("snapshot: header claims %d events, shards sum to %d", out.Meta.Events, sumEvents)
	}
	return out, nil
}
