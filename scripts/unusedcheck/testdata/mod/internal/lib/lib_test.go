package lib

import "testing"

// A test's call does not reach an export.
func TestUnused(t *testing.T) {
	if Unused() != 3 {
		t.Fatal("Unused")
	}
}
