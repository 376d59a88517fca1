// Command memserve is the characterization service: an HTTP/JSON
// server answering bandwidth queries, planner decisions, and surface
// slices from a surface store, with analytic fallback — the fast face
// over the simulator's slow truth. See internal/serve for the API.
//
// Usage:
//
//	memserve -store .sweepstore -addr 127.0.0.1:8090
//
// The server logs its actual listen address on startup (use -addr
// 127.0.0.1:0 for an ephemeral port) and shuts down cleanly on SIGINT
// or SIGTERM, draining in-flight requests.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

// Connection timeouts. A legitimate body is at most 1 MB and every
// answer is a lookup, so these bound only slow or stalled clients:
// headers must arrive within readHeaderTimeout, the whole request
// within readTimeout, the response must be written within
// writeTimeout, and an idle keep-alive connection closes after
// idleTimeout.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 30 * time.Second
	idleTimeout       = 120 * time.Second
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8090", "listen address (host:port; port 0 picks an ephemeral port)")
	storeDir := flag.String("store", ".sweepstore", "surface store directory")
	workers := flag.Int("workers", 0, "batch fan-out width (0 = default)")
	cache := flag.Int("cache", 0, "per-shard in-memory LRU entries (0 = store default)")
	flag.Parse()
	log.SetFlags(0)

	srv, err := serve.New(serve.Config{
		StoreDir:     *storeDir,
		Workers:      *workers,
		CacheEntries: *cache,
		Logf:         log.Printf,
	})
	if err != nil {
		log.Fatalf("memserve: %v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("memserve: %v", err)
	}
	log.Printf("memserve: serving %v from %s on http://%s", srv.Machines(), *storeDir, ln.Addr())

	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("memserve: %v", err)
		}
	case <-ctx.Done():
		stop()
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			log.Fatalf("memserve: shutdown: %v", err)
		}
		log.Printf("memserve: shutdown complete")
	}
}
