// Command simlint runs the simulator's domain-specific static
// analyzers (internal/lint) over Go packages:
//
//	simlint ./...                 # whole module, human-readable
//	simlint -json ./...           # machine-readable findings
//	simlint -fix ./...            # apply suggested fixes in place
//
// Every run applies the whole suite (lint.All). Findings print as
// file:line:col: [analyzer] message. Exit status is 0 when clean, 1
// when any finding is reported, 2 on load or usage errors. Suppress a
// finding with a `//simlint:ignore <analyzer> <reason>` comment on
// the offending line or the line above.
//
// Runs are incremental: per-package results are cached on disk
// (-cache-dir, default .simlintcache) keyed by the content of the
// package, its dependencies, the analyzer set, and the toolchain, so
// a warm run over an unchanged tree re-analyzes nothing. -cache=false
// disables the cache; -fix always runs uncached (fixes need live
// source positions). -j bounds parallel package analysis.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	fix := fs.Bool("fix", false, "apply suggested fixes to the source files")
	jobs := fs.Int("j", 0, "max concurrent package analyses (0 = GOMAXPROCS)")
	useCache := fs.Bool("cache", true, "reuse cached per-package results when inputs are unchanged")
	cacheDir := fs.String("cache-dir", ".simlintcache", "directory for the incremental cache")
	verbose := fs.Bool("v", false, "report cache statistics on stderr")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	driver := &lint.Driver{Analyzers: lint.All, Jobs: *jobs, CacheDir: *cacheDir}
	if !*useCache || *fix {
		// Applying fixes needs live token positions, which cached
		// diagnostics (rendered to file:line:col) no longer carry.
		driver.CacheDir = ""
	}
	res, err := driver.Run(patterns)
	if err != nil {
		fmt.Fprintln(stderr, "simlint:", err)
		return 2
	}
	diags := res.Diags
	if *verbose {
		module := "miss"
		if res.Stats.ModuleHit {
			module = "hit"
		}
		fmt.Fprintf(stderr, "simlint: cache: %d/%d package hits, module %s, %d loaded\n",
			res.Stats.PkgHits, res.Stats.Packages, module, res.Stats.Loaded)
	}

	if *fix {
		fixed, err := lint.RenderFixes(res.Fset, diags)
		if err != nil {
			fmt.Fprintln(stderr, "simlint:", err)
			return 2
		}
		if err := fixed.WriteFixes(); err != nil {
			fmt.Fprintln(stderr, "simlint:", err)
			return 2
		}
		fmt.Fprintf(stderr, "simlint: applied %d fix(es) in %d file(s)\n", fixed.Applied, len(fixed.Files))
		return 0
	}

	// Paths relative to the working directory read better and keep
	// output independent of where the checkout lives.
	for i := range diags {
		diags[i].File = rel(diags[i].File)
		if diags[i].Fix != nil {
			for j := range diags[i].Fix.Edits {
				diags[i].Fix.Edits[j].File = rel(diags[i].Fix.Edits[j].File)
			}
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, "simlint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "simlint: %d finding(s) in %d package(s)\n", len(diags), res.Stats.Packages)
		}
		return 1
	}
	return 0
}

// rel shortens an absolute path to one relative to the working
// directory when that stays inside it.
func rel(path string) string {
	wd, err := os.Getwd()
	if err != nil {
		return path
	}
	if r, err := filepath.Rel(wd, path); err == nil && !filepath.IsAbs(r) && r != "" {
		return r
	}
	return path
}
