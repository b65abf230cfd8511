package main

import (
	"io"
	"os"
	"testing"
)

// TestOutputGolden runs the example as `go run ./examples/looseintegration` does and
// holds what it prints to testdata/output.golden byte for byte. The
// figures are simulated milliseconds, so the output is the same on every
// machine.
func TestOutputGolden(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	main()
	os.Stdout = stdout
	w.Close()
	got := <-done
	want, err := os.ReadFile("testdata/output.golden")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("output changed; it now reads:\n%s\nwant:\n%s", got, want)
	}
}
