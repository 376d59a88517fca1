package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/probe"
	"repro/internal/surface"
	"repro/internal/units"
)

// DefaultCacheEntries is the in-memory LRU capacity when Options
// leaves it zero. The full figure set is 8 full and 13 one-row
// surfaces per run plus the characterization grids, so 64 holds
// several machines' worth of artifacts decoded.
const DefaultCacheEntries = 64

// Options tunes a store.
type Options struct {
	// CacheEntries bounds the in-memory LRU (decoded artifacts);
	// <= 0 selects DefaultCacheEntries.
	CacheEntries int
	// Scope is where the store registers its hit/miss/eviction
	// counters (e.g. a CLI probe's "store" scope). A zero Scope makes
	// the store register into a private registry so the counters
	// still tally.
	Scope probe.Scope
	// Logf, when non-nil, receives quarantine and staleness
	// warnings. The store never fails a lookup on corruption — it
	// logs, quarantines, and misses.
	Logf func(format string, args ...any)
}

// Store is a persistent, content-addressed cache of sweep artifacts:
// snapshot files in a directory, indexed by a versioned manifest,
// fronted by a bounded LRU of decoded artifacts. All methods are safe
// for concurrent use.
type Store struct {
	mu    sync.Mutex
	dir   string
	man   Manifest
	byKey map[Key]int // index into man.Entries
	lru   *lru
	logf  func(format string, args ...any)
	// gen counts changes to the set of servable artifacts: every
	// PutSurface and every quarantine bumps it, under mu. A Querier
	// reads it without the lock to tell whether its index is current.
	gen atomic.Uint64

	memHits     probe.Counter
	diskHits    probe.Counter
	misses      probe.Counter
	evictions   probe.Counter
	writes      probe.Counter
	quarantined probe.Counter
	staleDrops  probe.Counter
}

// Stats is a point-in-time view of the store's counters.
type Stats struct {
	MemHits     int64
	DiskHits    int64
	Misses      int64
	Evictions   int64
	Writes      int64
	Quarantined int64
	StaleDrops  int64
}

// Hits returns total hits (memory + disk).
func (s Stats) Hits() int64 { return s.MemHits + s.DiskHits }

// HitRate returns hits / (hits + misses), or 0 with no traffic.
func (s Stats) HitRate() float64 {
	total := s.Hits() + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits()) / float64(total)
}

func (s Stats) String() string {
	return fmt.Sprintf("%d hits (%d mem, %d disk), %d misses, hit rate %.3f, %d writes, %d evictions, %d quarantined, %d stale",
		s.Hits(), s.MemHits, s.DiskHits, s.Misses, s.HitRate(), s.Writes, s.Evictions, s.Quarantined, s.StaleDrops)
}

// Open opens (creating if needed) the store rooted at dir. A corrupt
// or wrong-version manifest is quarantined and the store opens
// empty; opening never fails on bad store contents, only on real I/O
// errors (unwritable directory).
func Open(dir string, opt Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	capEntries := opt.CacheEntries
	if capEntries <= 0 {
		capEntries = DefaultCacheEntries
	}
	scope := opt.Scope
	if !scope.Valid() {
		scope = probe.New().Scope("store")
	}
	s := &Store{
		dir:  dir,
		lru:  newLRU(capEntries),
		logf: opt.Logf,

		memHits:     scope.Counter("mem_hits"),
		diskHits:    scope.Counter("disk_hits"),
		misses:      scope.Counter("misses"),
		evictions:   scope.Counter("evictions"),
		writes:      scope.Counter("writes"),
		quarantined: scope.Counter("quarantined"),
		staleDrops:  scope.Counter("stale_drops"),
	}
	s.byKey = make(map[Key]int)
	manPath := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(manPath)
	switch {
	case err == nil:
		if uerr := s.man.UnmarshalBinary(data); uerr != nil {
			s.quarantine(manifestName, uerr)
			s.man = Manifest{}
		}
	case os.IsNotExist(err):
		// Fresh store.
	default:
		return nil, err
	}
	for i := range s.man.Entries {
		s.byKey[s.man.Entries[i].Key()] = i
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		MemHits:     s.memHits.Get(),
		DiskHits:    s.diskHits.Get(),
		Misses:      s.misses.Get(),
		Evictions:   s.evictions.Get(),
		Writes:      s.writes.Get(),
		Quarantined: s.quarantined.Get(),
		StaleDrops:  s.staleDrops.Get(),
	}
}

// Len returns the number of indexed artifacts.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.man.Entries)
}

// GetSurface returns a copy of the stored surface for k, if the
// store holds one whose calibration hash and grid both verify.
func (s *Store) GetSurface(k Key) (*surface.Surface, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	surf, ok := s.load(k)
	if !ok {
		return nil, false
	}
	return cloneSurface(surf), true
}

// load looks k up through the LRU, then the manifest and disk,
// verifying checksum, calibration hash, and grid signature. Callers
// hold s.mu.
func (s *Store) load(k Key) (*surface.Surface, bool) {
	if surf, ok := s.lru.get(k); ok {
		s.memHits.Inc()
		return surf, true
	}
	idx, ok := s.byKey[k]
	if !ok {
		s.misses.Inc()
		return nil, false
	}
	e := s.man.Entries[idx]
	data, err := os.ReadFile(filepath.Join(s.dir, e.File))
	if err != nil {
		s.dropEntry(k, e.File, fmt.Errorf("unreadable: %w", err))
		s.misses.Inc()
		return nil, false
	}
	if sum := Checksum(data); sum != e.Checksum {
		s.dropEntry(k, e.File, fmt.Errorf("checksum %016x does not match manifest %016x", sum, e.Checksum))
		s.misses.Inc()
		return nil, false
	}
	surf := &surface.Surface{}
	if err := surf.UnmarshalBinary(data); err != nil {
		s.dropEntry(k, e.File, err)
		s.misses.Inc()
		return nil, false
	}
	if surf.CalHash != k.CalHash {
		// A stale artifact under a current key: never serve it.
		s.staleDrops.Inc()
		s.dropEntry(k, e.File, fmt.Errorf("calibration hash %016x does not match key %016x", surf.CalHash, k.CalHash))
		s.misses.Inc()
		return nil, false
	}
	if SurfaceGridSig(surf.Strides, surf.WorkingSets) != k.GridSig {
		s.dropEntry(k, e.File, fmt.Errorf("grid signature mismatch"))
		s.misses.Inc()
		return nil, false
	}
	s.diskHits.Inc()
	s.insertLRU(k, surf)
	return surf, true
}

// PutSurface persists surf under k and indexes it. The surface is
// cloned on the way in, so the caller keeps ownership of its copy.
func (s *Store) PutSurface(k Key, surf *surface.Surface) error {
	if surf.CalHash != k.CalHash {
		return fmt.Errorf("store: surface calibration hash %016x does not match key %016x", surf.CalHash, k.CalHash)
	}
	clone := cloneSurface(surf)
	data, err := clone.MarshalBinary()
	if err != nil {
		return err
	}
	cells := int64(len(clone.WorkingSets) * len(clone.Strides))
	simulated := int64(clone.CountSource(surface.Simulated))
	s.mu.Lock()
	defer s.mu.Unlock()
	name := k.filename() + ".surf"
	if err := writeFileAtomic(filepath.Join(s.dir, name), data); err != nil {
		return err
	}
	e := Entry{
		File:    name,
		Machine: k.Machine, Pattern: k.Pattern,
		CalHash: k.CalHash, GridSig: k.GridSig,
		Cells: cells, Simulated: simulated,
		Checksum: Checksum(data),
	}
	if idx, ok := s.byKey[k]; ok {
		s.man.Entries[idx] = e
	} else {
		s.man.Entries = append(s.man.Entries, e)
		s.byKey[k] = len(s.man.Entries) - 1
	}
	s.gen.Add(1)
	if err := s.writeManifest(); err != nil {
		return err
	}
	s.writes.Inc()
	s.insertLRU(k, clone)
	return nil
}

// insertLRU caches surf under k, tallying evictions. Callers hold
// s.mu.
func (s *Store) insertLRU(k Key, surf *surface.Surface) {
	s.evictions.Add(int64(s.lru.put(k, surf)))
}

// dropEntry quarantines the artifact file and removes its manifest
// entry and LRU slot. Callers hold s.mu.
func (s *Store) dropEntry(k Key, file string, cause error) {
	s.quarantine(file, cause)
	s.lru.drop(k)
	idx, ok := s.byKey[k]
	if !ok {
		return
	}
	s.man.Entries = append(s.man.Entries[:idx], s.man.Entries[idx+1:]...)
	delete(s.byKey, k)
	for key, i := range s.byKey {
		if i > idx {
			s.byKey[key] = i - 1
		}
	}
	if err := s.writeManifest(); err != nil {
		s.warnf("store: rewriting manifest after quarantine: %v", err)
	}
}

// quarantine renames a bad file aside (name + ".quarantined") so it
// stays inspectable but can never be served, and logs the cause.
func (s *Store) quarantine(file string, cause error) {
	s.quarantined.Inc()
	s.gen.Add(1)
	from := filepath.Join(s.dir, file)
	to := from + ".quarantined"
	if err := os.Rename(from, to); err != nil {
		// The entry is dropped regardless; a failed rename only means
		// the bad bytes stay under their old name until overwritten.
		s.warnf("store: quarantining %s: %v (cause: %v)", file, err, cause)
		return
	}
	s.warnf("store: quarantined %s: %v", file, cause)
}

func (s *Store) warnf(format string, args ...any) {
	if s.logf != nil {
		s.logf(format, args...)
	}
}

// writeManifest rewrites the manifest file atomically. Callers hold
// s.mu.
func (s *Store) writeManifest() error {
	data, err := s.man.MarshalBinary()
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(s.dir, manifestName), data)
}

// writeFileAtomic writes via a temp file and rename, so a crashed
// writer leaves either the old bytes or the new ones, never a
// truncated mix.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// cloneSurface deep-copies a surface.
func cloneSurface(s *surface.Surface) *surface.Surface {
	out := &surface.Surface{
		Machine: s.Machine, Title: s.Title, CalHash: s.CalHash,
		Strides:     append([]int(nil), s.Strides...),
		WorkingSets: append([]units.Bytes(nil), s.WorkingSets...),
	}
	out.BW = make([][]units.BytesPerSec, len(s.BW))
	for i, row := range s.BW {
		out.BW[i] = append([]units.BytesPerSec(nil), row...)
	}
	out.Source = make([][]surface.Source, len(s.Source))
	for i, row := range s.Source {
		out.Source[i] = append([]surface.Source(nil), row...)
	}
	return out
}
