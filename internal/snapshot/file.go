package snapshot

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// Ext is the legacy VPSNAP01 snapshot file extension (read-only).
const Ext = ".vpsnap"

// DeltaExt is the checkpoint file extension. A full checkpoint is a
// chain root: a .vpdelta file with an empty parent ID.
const DeltaExt = ".vpdelta"

// deltaTmpPattern names in-progress checkpoint files; tmpPattern is the
// legacy writer's. SweepTemp removes strays a crashed writer of either
// left behind.
const (
	tmpPattern      = ".vpsnap-tmp-*"
	deltaTmpPattern = ".vpdelta-tmp-*"
)

// SweepTemp removes orphaned in-progress checkpoint files from dir and
// reports how many it deleted. A writer killed between CreateTemp and
// rename leaves a near-full-size temp file nothing else cleans up, so a
// server sweeps its checkpoint directory on startup. A checkpoint
// directory belongs to one server at a time (LatestAny would conflate
// several anyway), so any temp file found at startup is dead.
func SweepTemp(dir string) (int, error) {
	removed := 0
	for _, pattern := range []string{tmpPattern, deltaTmpPattern} {
		strays, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			return removed, fmt.Errorf("snapshot: %w", err)
		}
		for _, path := range strays {
			if err := os.Remove(path); err == nil {
				removed++
			} else if !os.IsNotExist(err) {
				return removed, fmt.Errorf("snapshot: %w", err)
			}
		}
	}
	return removed, nil
}

// syncDir flushes the directory entry so the rename itself survives a
// crash, not just the file contents.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	syncErr := d.Sync()
	if closeErr := d.Close(); syncErr == nil {
		syncErr = closeErr
	}
	return syncErr
}

// ReadFile decodes and verifies one legacy VPSNAP01 snapshot file.
func ReadFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	s, err := DecodeBytes(data)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return s, nil
}

// DeltaFilename returns the canonical file name for a checkpoint: event
// count then creation time, both zero-padded so lexicographic order is
// checkpoint order (ties on events broken by wall clock), then the
// content-addressed ID. Legacy .vpsnap files follow the same scheme
// under the "snap-" prefix.
func DeltaFilename(events uint64, createdUnixNano int64, id string) string {
	return fmt.Sprintf("delta-%020d-%020d-%s%s", events, createdUnixNano, id, DeltaExt)
}

// parseCkptName extracts the ordering key from a canonical checkpoint
// file name of either generation ("snap-<events>-<created>-<id>.vpsnap"
// or "delta-<events>-<created>-<id>.vpdelta").
func parseCkptName(name string) (events uint64, createdUnixNano int64, id string, ok bool) {
	switch {
	case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, Ext):
		name = name[len("snap-") : len(name)-len(Ext)]
	case strings.HasPrefix(name, "delta-") && strings.HasSuffix(name, DeltaExt):
		name = name[len("delta-") : len(name)-len(DeltaExt)]
	default:
		return 0, 0, "", false
	}
	parts := strings.SplitN(name, "-", 3)
	if len(parts) != 3 || len(parts[0]) != 20 || len(parts[1]) != 20 || parts[2] == "" {
		return 0, 0, "", false
	}
	var created uint64
	if _, err := fmt.Sscanf(parts[0], "%d", &events); err != nil {
		return 0, 0, "", false
	}
	if _, err := fmt.Sscanf(parts[1], "%d", &created); err != nil {
		return 0, 0, "", false
	}
	return events, int64(created), parts[2], true
}

// LatestAny returns the newest checkpoint file in dir across both
// generations (.vpdelta and legacy .vpsnap), ordered by event count then
// creation time parsed from the canonical names — a mixed directory
// (a server upgraded over existing legacy snapshots) restores from
// whichever checkpoint is furthest along. fs.ErrNotExist
// is returned when the directory holds no checkpoints.
func LatestAny(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", fmt.Errorf("snapshot: %w", err)
	}
	best := ""
	var bestEvents uint64
	var bestCreated int64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		events, created, _, ok := parseCkptName(name)
		if !ok {
			continue
		}
		if best == "" || events > bestEvents ||
			(events == bestEvents && (created > bestCreated ||
				(created == bestCreated && name > best))) {
			best, bestEvents, bestCreated = name, events, created
		}
	}
	if best == "" {
		return "", fmt.Errorf("snapshot: no %s or %s files in %s: %w", Ext, DeltaExt, dir, fs.ErrNotExist)
	}
	return filepath.Join(dir, best), nil
}

// FindByID locates the checkpoint file in dir whose content-addressed ID
// matches — how a delta's parent reference becomes a path. fs.ErrNotExist
// is returned when no file carries the ID.
func FindByID(dir, id string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", fmt.Errorf("snapshot: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if _, _, fid, ok := parseCkptName(e.Name()); ok && fid == id {
			return filepath.Join(dir, e.Name()), nil
		}
	}
	return "", fmt.Errorf("snapshot: no checkpoint with id %s in %s: %w", id, dir, fs.ErrNotExist)
}

// WriteDeltaFileAtomic encodes a checkpoint into dir under its canonical
// name using the temp-file-plus-rename protocol: a reader (or a crashed
// writer) can never observe a partial checkpoint. The file is fsynced
// before the rename and the directory after it, so a completed write
// also survives power loss.
func WriteDeltaFileAtomic(dir string, d *Delta) (path string, err error) {
	f, err := os.CreateTemp(dir, deltaTmpPattern)
	if err != nil {
		return "", fmt.Errorf("snapshot: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	bw := bufio.NewWriterSize(f, 1<<20)
	id, err := EncodeDelta(bw, d)
	if err != nil {
		return "", err
	}
	if err = bw.Flush(); err != nil {
		return "", fmt.Errorf("snapshot: %w", err)
	}
	if err = f.Sync(); err != nil {
		return "", fmt.Errorf("snapshot: %w", err)
	}
	if err = f.Close(); err != nil {
		return "", fmt.Errorf("snapshot: %w", err)
	}
	path = filepath.Join(dir, DeltaFilename(d.Meta.Events, d.Meta.CreatedUnixNano, id))
	if err = os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("snapshot: %w", err)
	}
	if err = syncDir(dir); err != nil {
		return "", fmt.Errorf("snapshot: %w", err)
	}
	return path, nil
}

// ReadDeltaFile decodes and verifies one v2 checkpoint file.
func ReadDeltaFile(path string) (*Delta, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	d, err := DecodeDeltaBytes(data)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return d, nil
}

// SweepSuperseded removes checkpoint files of either generation whose
// event count is at or below events, keeping keepPath itself — the chunk
// GC a server runs after a successful chain root, when every older
// chain (and any chunk only reachable through it, and any legacy
// snapshot it was restored from) is superseded. Returns
// how many files were removed.
func SweepSuperseded(dir, keepPath string, events uint64) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	keep := filepath.Base(keepPath)
	removed := 0
	for _, e := range entries {
		if e.IsDir() || e.Name() == keep {
			continue
		}
		ev, _, _, ok := parseCkptName(e.Name())
		if !ok || ev > events {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err == nil {
			removed++
		} else if !os.IsNotExist(err) {
			return removed, fmt.Errorf("snapshot: %w", err)
		}
	}
	return removed, nil
}
