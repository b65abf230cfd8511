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
	// valid is the segment a log holding payloads writes; a payload it
	// fails to write fails the setup.
	valid := func(payloads ...string) []byte {
		fs := NewMemFS()
		l, err := OpenLog(fs, LogOptions{})
		for _, p := range payloads {
			if err == nil {
				_, err = l.Append([]byte(p))
			}
		}
		if err == nil {
			err = l.Close()
		}
		data, rerr := readAll(fs, segName(1))
		if err != nil || rerr != nil {
			f.Fatalf("seed segment of %q: %v, %v", payloads, err, rerr)
		}
		return data
	}
	f.Add(valid("one", "two", "three"))
	f.Add(valid("x"))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 5, 1, 2, 3, 4})                   // torn: body missing
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0}) // absurd length
	f.Add(append(valid("intact"), 0, 0, 0, 2, 9, 9, 'a'))   // valid prefix + torn tail
	// A segment a checkpoint opened: bind's 'c' marker for one zone, then
	// that zone's 'r' image (serial 7, zone "z", no records).
	f.Add(valid("c\x01", "r\x07\x01z"))
	// Whole frames around the bind 'u' records a flip journals: the golden
	// one, then its TTL overlong, then its type 65536. The frames are sound;
	// bind's decoder refuses the last two.
	f.Add(valid("u\x2a\x03hns\x00\x0ah0.ctx.hns\x80\xfe\x03\x01\xd8\x04\x0ans=bind-cs",
		"u\x2b\x03hns\x00\x0ah0.ctx.hns\x80\xfe\x03\x01\xd8\x84\x00\x0ans=bind-cs",
		"u\x2c\x03hns\x00\x0ah0.ctx.hns\x80\x80\x04\x01\xd8\x04\x0ans=bind-cs"))
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
