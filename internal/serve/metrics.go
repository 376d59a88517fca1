package serve

import (
	"fmt"
	"net/http"
	"strings"

	"repro/internal/store"
)

// handleMetrics renders every counter as "name value" lines, sorted:
// first the serve-scope request/error/latency counters, then each
// shard's answer-confidence counters, then each shard store's
// hit/miss/eviction statistics, then the enumeration catalog's. Plain
// text, one counter per line, deterministic order — greppable by
// scripts and diffable between scrapes.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) int {
	var b strings.Builder
	for _, v := range s.metrics.Snapshot() {
		fmt.Fprintf(&b, "%s %d\n", v.Name, v.Count)
	}
	for _, name := range s.names {
		writeAnswerCounts(&b, "serve."+name+".answers", s.shards[name])
	}
	for _, name := range s.names {
		writeStoreStats(&b, "store."+name, s.shards[name].st)
	}
	writeStoreStats(&b, "store.catalog", s.catalog)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
	return http.StatusOK
}

// writeAnswerCounts renders one shard's bandwidth answers by
// confidence under a prefix. The prefix must not start with "store.":
// those lines are the stores' hit/miss statistics.
func writeAnswerCounts(b *strings.Builder, prefix string, sh *shard) {
	for _, c := range []store.Confidence{store.Exact, store.Interpolated, store.Analytic} {
		fmt.Fprintf(b, "%s.%s %d\n", prefix, c, sh.answers[c].Load())
	}
}

// writeStoreStats renders one store's counters under a prefix.
func writeStoreStats(b *strings.Builder, prefix string, st *store.Store) {
	v := st.Stats()
	fmt.Fprintf(b, "%s.mem_hits %d\n", prefix, v.MemHits)
	fmt.Fprintf(b, "%s.disk_hits %d\n", prefix, v.DiskHits)
	fmt.Fprintf(b, "%s.misses %d\n", prefix, v.Misses)
	fmt.Fprintf(b, "%s.evictions %d\n", prefix, v.Evictions)
	fmt.Fprintf(b, "%s.writes %d\n", prefix, v.Writes)
	fmt.Fprintf(b, "%s.quarantined %d\n", prefix, v.Quarantined)
	fmt.Fprintf(b, "%s.stale_drops %d\n", prefix, v.StaleDrops)
}
