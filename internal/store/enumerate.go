package store

import "sort"

// Manifest enumeration: the read-only index views behind memserve's
// GET /v1/surfaces and GET /v1/machines endpoints. Both return copies
// in a deterministic order so HTTP responses built from them are
// byte-stable run to run.

// Entries returns a copy of the manifest, sorted by (Machine,
// Pattern, GridSig, CalHash). The File names inside are unique
// per entry and stable, which is what lets a caller use them as
// artifact keys (memserve's /v1/surfaces/{key}).
func (s *Store) Entries() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]Entry(nil), s.man.Entries...)
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Machine != b.Machine {
			return a.Machine < b.Machine
		}
		if a.Pattern != b.Pattern {
			return a.Pattern < b.Pattern
		}
		if a.GridSig != b.GridSig {
			return a.GridSig < b.GridSig
		}
		return a.CalHash < b.CalHash
	})
	return out
}

// EntryByFile returns the manifest entry whose artifact file name is
// file, if one is indexed.
func (s *Store) EntryByFile(file string) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.man.Entries {
		if s.man.Entries[i].File == file {
			return s.man.Entries[i], true
		}
	}
	return Entry{}, false
}

// MachineCount is one machine's artifact tally in a store.
type MachineCount struct {
	Machine   string
	Artifacts int
}

// MachineCounts returns the distinct machine names indexed by the
// manifest with their artifact counts, sorted by name.
func (s *Store) MachineCounts() []MachineCount {
	s.mu.Lock()
	defer s.mu.Unlock()
	counts := make(map[string]int)
	for i := range s.man.Entries {
		counts[s.man.Entries[i].Machine]++
	}
	names := make([]string, 0, len(counts))
	//simlint:ignore determinism keys are sorted immediately below
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]MachineCount, 0, len(names))
	for _, name := range names {
		out = append(out, MachineCount{Machine: name, Artifacts: counts[name]})
	}
	return out
}
