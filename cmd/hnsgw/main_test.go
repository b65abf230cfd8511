package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// TestFlagsGolden pins hnsgw's flag surface: every name, type, default and
// help string, as -h prints them.
func TestFlagsGolden(t *testing.T) {
	fs := flag.NewFlagSet("hnsgw", flag.ContinueOnError)
	flags(fs)
	var got strings.Builder
	fs.SetOutput(&got)
	fs.PrintDefaults()
	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("hnsgw's flags changed; -h now prints:\n%s\nwant:\n%s", got.String(), want)
	}
}
