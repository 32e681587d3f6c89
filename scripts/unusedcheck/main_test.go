package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const testModule = "testdata/mod"

// flagged runs the checker on the test module with the given allowlist
// lines and returns whether it failed, the keys it reported as unreached
// and its full output.
func flagged(t *testing.T, allow ...string) (bool, []string, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "allow.txt")
	if err := os.WriteFile(path, []byte(strings.Join(allow, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	failed, err := run(testModule, path, &out)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, line := range strings.Split(out.String(), "\n") {
		if _, rest, ok := strings.Cut(line, ": "); ok && strings.HasSuffix(rest, " is exported but has no caller outside tests") {
			keys = append(keys, strings.Fields(rest)[0])
		}
	}
	return failed, keys, out.String()
}

// TestUnreachedExportFails: exports with no caller outside tests fail
// the check, a chain of them is reported whole, and neither an
// interface-satisfying method nor an allowlisted export is reported.
func TestUnreachedExportFails(t *testing.T) {
	failed, keys, out := flagged(t, "internal/lib.Allowed test-reference")
	want := []string{"internal/lib.Square.Scale", "internal/lib.Unused", "internal/lib.OnlyFromUnused"}
	if !failed || !slices.Equal(keys, want) {
		t.Fatalf("failed=%v flagged %v, want failed with %v\n%s", failed, keys, want, out)
	}
}

// TestAllowlistedExportsPass: with every unreached export allowlisted
// the check passes. Area (module interface) and String (fmt.Stringer)
// need no entry, and neither does OnlyFromUnused once Unused, its caller,
// is allowlisted.
func TestAllowlistedExportsPass(t *testing.T) {
	failed, keys, out := flagged(t,
		"# comments and blank lines are ignored",
		"",
		"internal/lib.Allowed test-reference",
		"internal/lib.Square.Scale test-fake",
		"internal/lib.Unused servicebench # trailing comment",
	)
	if failed || len(keys) != 0 {
		t.Fatalf("failed=%v flagged %v, want a pass\n%s", failed, keys, out)
	}
}

// TestAllowlistEntryMustStayNeeded: an entry that names a reached export
// (here one reached through the allowlisted Unused) fails the check, so
// the list cannot outlive the code it excuses.
func TestAllowlistEntryMustStayNeeded(t *testing.T) {
	failed, _, out := flagged(t,
		"internal/lib.Allowed test-reference",
		"internal/lib.Square.Scale test-fake",
		"internal/lib.Unused servicebench",
		"internal/lib.OnlyFromUnused test-handler",
	)
	if !failed || !strings.Contains(out, "allowlist entry internal/lib.OnlyFromUnused names no unreached export") {
		t.Fatalf("failed=%v; want the stale entry reported\n%s", failed, out)
	}
}

// TestAllowlistReasonIsClosed: a reason outside the closed set, or a
// line without one, is an error.
func TestAllowlistReasonIsClosed(t *testing.T) {
	for _, line := range []string{"internal/lib.Allowed nobody-calls-it", "internal/lib.Allowed"} {
		path := filepath.Join(t.TempDir(), "allow.txt")
		if err := os.WriteFile(path, []byte(line+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := run(testModule, path, &strings.Builder{}); err == nil {
			t.Errorf("allowlist line %q accepted", line)
		}
	}
}
