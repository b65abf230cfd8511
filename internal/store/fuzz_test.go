package store

import "testing"

// Native fuzz targets for the durability codecs. `go test` runs the seed
// corpus; `make fuzz` explores. The decoders face whatever a damaged
// disk hands back, so the bar is: never panic, never mis-accept.

// FuzzWALDecode throws arbitrary bytes at the segment scanner as if they
// were a segment file's contents: scanning must terminate, must never
// claim more valid bytes than exist, and a file built by appending valid
// frames must scan back exactly.
func FuzzWALDecode(f *testing.F) {
	valid := func(payloads ...string) []byte {
		fs := NewMemFS()
		l, _ := OpenLog(fs, LogOptions{})
		for _, p := range payloads {
			l.Append([]byte(p))
		}
		l.Close()
		data, _ := readAll(fs, segName(1))
		return data
	}
	f.Add(valid("one", "two", "three"))
	f.Add(valid("x"))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 5, 1, 2, 3, 4})                   // torn: body missing
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0}) // absurd length
	f.Add(append(valid("intact"), 0, 0, 0, 2, 9, 9, 'a'))   // valid prefix + torn tail
	// A segment a checkpoint opened: bind's 'C' marker for one zone, then
	// that zone's 'R' image (serial 7, zone "z", no records).
	f.Add(valid("C\x00\x00\x00\x01", "R\x00\x00\x00\x07\x00\x01z\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		count, validLen, tail := scanFrames(data)
		if validLen > len(data) || validLen < 0 || count < 0 {
			t.Fatalf("scan out of range: count %d validLen %d of %d", count, validLen, len(data))
		}
		if tail == tailClean && validLen != len(data) {
			t.Fatalf("clean tail but %d of %d bytes valid", validLen, len(data))
		}
		// The valid prefix must rescan to the same answer (idempotent
		// truncation — what Open relies on after cutting a torn tail).
		c2, v2, t2 := scanFrames(data[:validLen])
		if c2 != count || v2 != validLen || t2 != tailClean {
			t.Fatalf("truncated prefix rescans differently: %d/%d/%d vs %d/%d/clean",
				c2, v2, t2, count, validLen)
		}
		// And a log opened over exactly these bytes must replay count
		// records without error (tail damage is at the tail by
		// construction here — a single segment).
		fs := NewMemFS()
		file, _ := fs.Create(segName(1))
		file.Write(data)
		file.Close()
		l, err := OpenLog(fs, LogOptions{})
		if tail == tailCorrupt {
			if err == nil {
				t.Fatal("corrupt interior frame accepted by OpenLog")
			}
			return
		}
		if err != nil {
			t.Fatalf("OpenLog rejected tolerable damage: %v", err)
		}
		n := 0
		if err := l.Replay(0, func(lsn uint64, p []byte) error { n++; return nil }); err != nil {
			t.Fatalf("replay: %v", err)
		}
		if n != count {
			t.Fatalf("replayed %d records, scanner counted %d", n, count)
		}
	})
}
