package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixture is the path of one lint fixture package, passed to simlint
// as a literal directory (fixtures are invisible to go list).
func fixture(name string) string {
	return filepath.Join("..", "..", "internal", "lint", "testdata", "src", name)
}

// TestRunExitCodes pins the contract scripts/check.sh relies on: exit
// 0 on a clean package, 1 with one [analyzer] line per finding on
// stdout, and 2 for usage or load errors.
func TestRunExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout string // substring every stdout line must contain
	}{
		{"clean", []string{"-cache=false", fixture("unitsafe_ok")}, 0, ""},
		{"findings", []string{"-cache=false", fixture("unitsafe_bad")}, 1, "[unitsafe]"},
		{"removed flag", []string{"-baseline", "x", fixture("unitsafe_ok")}, 2, ""},
		{"missing package", []string{"-cache=false", "repro/internal/nosuchpkg"}, 2, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, &stdout, &stderr)
			}
			out := strings.TrimSpace(stdout.String())
			if tc.stdout == "" {
				if out != "" {
					t.Fatalf("want empty stdout, got:\n%s", out)
				}
				return
			}
			for _, line := range strings.Split(out, "\n") {
				if !strings.Contains(line, tc.stdout) {
					t.Errorf("stdout line %q lacks %q", line, tc.stdout)
				}
			}
		})
	}
}

// TestHelpListsSixFlags: the flag surface is -json, -fix, -j, -cache,
// -cache-dir and -v, nothing more.
func TestHelpListsSixFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h exit %d, want 0", code)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(stderr.String(), -1) {
		got = append(got, m[1])
	}
	if want := "cache cache-dir fix j json v"; strings.Join(got, " ") != want {
		t.Fatalf("flags %v, want %s", got, want)
	}
}
