package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"hns/internal/bind"
	"hns/internal/world"
)

const transcript = "../../docs/hnsbench-output.txt"

// TestAllMatchesTranscript is the paper harness's bit-identity oracle:
// -all's sections, run in -all order on one world, reproduce the
// checked-in transcript byte for byte. The scale section is skipped (it
// takes seconds; TestRunScaleDeterministicSimSide pins it), so it must be
// the transcript's last.
func TestAllMatchesTranscript(t *testing.T) {
	golden, err := os.ReadFile(transcript)
	if err != nil {
		t.Fatal(err)
	}
	w, err := world.New(world.Config{CacheMode: bind.CacheMarshalled})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	sections := []section{
		{"table 3.1", printTable31},
		{"table 3.2", printTable32},
		{"figure 2.1", printFigure21},
	}
	for _, p := range proseRunners {
		if p.name != "scale" {
			sections = append(sections, section{"prose " + p.name, p.fn})
		}
	}
	rest := string(golden)
	for _, s := range sections {
		var out strings.Builder
		if err := s.fn(context.Background(), &out, w); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		out.WriteString("\n") // main's separator after every section
		got := out.String()
		if !strings.HasPrefix(rest, got) {
			t.Fatalf("%s differs from %s (if intended, regenerate it with `make harness`):\n%s",
				s.name, transcript, firstDiff(got, rest))
		}
		rest = rest[len(got):]
	}
	if !strings.HasPrefix(rest, "Fleet-scale scenario matrix") {
		t.Fatalf("%s: want the scale section after the last checked one, got %.80q", transcript, rest)
	}
}

// firstDiff reports the first line where got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range g {
		if i >= len(w) || g[i] != w[i] {
			wl := "<end of transcript>"
			if i < len(w) {
				wl = w[i]
			}
			return fmt.Sprintf("section line %d:\n  got:  %s\n  want: %s", i+1, g[i], wl)
		}
	}
	return "(no differing line)"
}
