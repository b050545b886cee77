// Package cas is a content-addressed blob store shared by the distributed
// sweep fabric: finished results travel between nodes as blobs keyed by the
// hex SHA-256 of their bytes.
//
// Content addressing makes every blob self-verifying, the same discipline
// as the engine's result-cache envelopes: a reader recomputes the sum and
// refuses bytes that do not hash to their key. Corrupt or torn entries are
// detected positively, quarantined under <dir>/quarantine (never served,
// never silently deleted), and the caller falls back to recomputing or
// refetching from a healthy peer. Because blobs are pure functions of their
// key, writes race benignly: every writer writes the same bytes.
package cas

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"sync/atomic"
)

// ErrNotFound reports a blob that is not in the store.
var ErrNotFound = errors.New("cas: not found")

// ErrCorrupt reports a blob whose bytes did not hash to its key. The entry
// has been quarantined; callers should refetch from another source or
// recompute.
var ErrCorrupt = errors.New("cas: corrupt blob")

// Sum returns the store key for a blob: hex SHA-256 of its bytes.
func Sum(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

var sumRE = regexp.MustCompile(`^[0-9a-f]{64}$`)

// ValidSum reports whether s is a well-formed blob key.
func ValidSum(s string) bool { return sumRE.MatchString(s) }

// Stats is a point-in-time snapshot of a store's counters.
type Stats struct {
	// Blobs is the number of distinct blobs resident in memory (disk-only
	// entries not yet read are not counted).
	Blobs int64
	// Hits and Misses count Get outcomes; Corrupt counts blobs that failed
	// verification (each one also quarantined when a directory is
	// configured); Puts counts stored blobs (deduplicated writes included).
	Hits, Misses, Corrupt, Puts int64
}

// Store holds blobs in memory and, when a directory is configured, on
// disk. All methods are safe for concurrent use. The zero value is not
// usable; call NewStore.
type Store struct {
	dir string // "" = memory only

	mu  sync.Mutex
	mem map[string][]byte // blob sum -> bytes

	hits, misses, corrupt, puts atomic.Int64
}

// NewStore returns a store rooted at dir ("" = memory only). The directory
// is created lazily on first write, so an unusable path degrades writes,
// never construction.
func NewStore(dir string) *Store {
	return &Store{dir: dir, mem: make(map[string][]byte)}
}

func (s *Store) blobPath(sum string) string {
	return filepath.Join(s.dir, "blobs", sum)
}

// Put stores b and returns its sum. Storing bytes that are already present
// is a cheap no-op (content addressing makes the write idempotent).
func (s *Store) Put(b []byte) (string, error) {
	sum := Sum(b)
	cp := append([]byte(nil), b...)
	s.mu.Lock()
	_, had := s.mem[sum]
	if !had {
		s.mem[sum] = cp
	}
	s.mu.Unlock()
	s.puts.Add(1)
	if s.dir == "" || had {
		return sum, nil
	}
	if err := s.writeFile(s.blobPath(sum), cp); err != nil {
		return sum, fmt.Errorf("cas: put %s: %w", short(sum), err)
	}
	return sum, nil
}

// Get returns the blob stored under sum. Disk reads are verified against
// the key before being served or promoted to memory; a mismatch
// quarantines the file and returns ErrCorrupt so the caller can refetch
// from a healthy peer.
func (s *Store) Get(sum string) ([]byte, error) {
	s.mu.Lock()
	b, ok := s.mem[sum]
	s.mu.Unlock()
	if ok {
		s.hits.Add(1)
		return b, nil
	}
	if s.dir == "" {
		s.misses.Add(1)
		return nil, ErrNotFound
	}
	b, err := os.ReadFile(s.blobPath(sum))
	if err != nil {
		s.misses.Add(1)
		return nil, ErrNotFound
	}
	if Sum(b) != sum {
		// Positively bad bytes: move the evidence aside so the next Put
		// starts clean, and never serve them.
		s.corrupt.Add(1)
		s.quarantine(sum)
		return nil, fmt.Errorf("%w: %s", ErrCorrupt, short(sum))
	}
	s.mu.Lock()
	s.mem[sum] = b
	s.mu.Unlock()
	s.hits.Add(1)
	return b, nil
}

// Has reports whether the blob is available without reading it into
// memory. A corrupt disk entry reports false (and is left for Get to
// quarantine).
func (s *Store) Has(sum string) bool {
	s.mu.Lock()
	_, ok := s.mem[sum]
	s.mu.Unlock()
	if ok || s.dir == "" {
		return ok
	}
	fi, err := os.Stat(s.blobPath(sum))
	return err == nil && fi.Mode().IsRegular()
}

// Evict drops the in-memory copy of a blob. A disk copy (when a directory
// is configured) is untouched and re-promoted on the next Get, so eviction
// bounds memory without deleting content; on a memory-only store the blob
// is gone and a later reader recomputes or refetches it.
func (s *Store) Evict(sum string) {
	s.mu.Lock()
	delete(s.mem, sum)
	s.mu.Unlock()
}

// Stats returns the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	blobs := int64(len(s.mem))
	s.mu.Unlock()
	return Stats{
		Blobs:   blobs,
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Corrupt: s.corrupt.Load(),
		Puts:    s.puts.Load(),
	}
}

// quarantine moves a corrupt blob into <dir>/quarantine, uniquified if a
// previous corpse is already there (same discipline as the engine cache).
func (s *Store) quarantine(sum string) {
	qdir := filepath.Join(s.dir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return
	}
	dst := filepath.Join(qdir, sum)
	for i := 1; ; i++ {
		if _, err := os.Lstat(dst); os.IsNotExist(err) {
			break
		}
		dst = filepath.Join(qdir, fmt.Sprintf("%s.%d", sum, i))
	}
	_ = os.Rename(s.blobPath(sum), dst)
}

// writeFile writes atomically: temp file + fsync + rename, so a reader
// never observes a torn entry from a real crash.
func (s *Store) writeFile(path string, b []byte) error {
	return WriteFileAtomic(path, b)
}

// WriteFileAtomic writes b to path with the store's crash discipline — temp
// file in the same directory, fsync, rename — creating parent directories as
// needed. A reader (or a restart) never observes a torn entry; it sees the
// old content or the new, nothing in between. Shared by the cluster
// coordinator's journal snapshots, which need exactly this guarantee.
func WriteFileAtomic(path string, b []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// short abbreviates a sum for error messages.
func short(sum string) string {
	if len(sum) > 12 {
		return sum[:12]
	}
	return sum
}
