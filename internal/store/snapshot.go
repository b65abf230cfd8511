package store

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"sort"
	"strconv"
	"strings"

	"hns/internal/metrics"
)

// Snapshots: a full copy of the state as of one WAL position, written to
// snap-<lsn>.snap via temp file + fsync + atomic rename, so a crash at
// any point leaves either the previous snapshot set or the previous set
// plus one complete new snapshot — never a half-written one under the
// real name. The payload is opaque here (bind writes zones in the
// human-readable master-file format); the envelope adds the covered LSN
// and a CRC32C trailer:
//
//	HNSSNAP v1 lsn <n> len <payload bytes>\n
//	<payload>
//	\nHNSSNAP crc <8-hex-digit CRC32C of header+payload>\n

const (
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	tmpSuffix  = ".tmp"
	snapMagic  = "HNSSNAP"
)

// EncodeSnapshot wraps payload in the checksummed snapshot envelope.
func EncodeSnapshot(lsn uint64, payload []byte) []byte {
	var b bytes.Buffer
	b.Grow(len(payload) + 96) // header and trailer are under 48 bytes each
	fmt.Fprintf(&b, "%s v1 lsn %d len %d\n", snapMagic, lsn, len(payload))
	b.Write(payload)
	sum := crc32.Checksum(b.Bytes(), crcTable)
	fmt.Fprintf(&b, "\n%s crc %08x\n", snapMagic, sum)
	return b.Bytes()
}

// DecodeSnapshot verifies the envelope and returns the covered LSN and
// payload. Any mismatch — framing, lengths, checksum — is ErrCorrupt.
func DecodeSnapshot(data []byte) (lsn uint64, payload []byte, err error) {
	head, rest, ok := bytes.Cut(data, []byte("\n"))
	if !ok {
		return 0, nil, fmt.Errorf("%w: snapshot missing header", ErrCorrupt)
	}
	var plen int
	if _, err := fmt.Sscanf(string(head), snapMagic+" v1 lsn %d len %d", &lsn, &plen); err != nil {
		return 0, nil, fmt.Errorf("%w: snapshot header %q", ErrCorrupt, head)
	}
	trailerLen := len("\n") + len(snapMagic) + len(" crc ") + 8 + len("\n")
	if plen < 0 || len(rest) != plen+trailerLen {
		return 0, nil, fmt.Errorf("%w: snapshot body is %d bytes, want %d+%d trailer",
			ErrCorrupt, len(rest), plen, trailerLen)
	}
	payload = rest[:plen]
	trailer := string(rest[plen:])
	var sum uint32
	if _, err := fmt.Sscanf(trailer, "\n"+snapMagic+" crc %08x\n", &sum); err != nil {
		return 0, nil, fmt.Errorf("%w: snapshot trailer %q", ErrCorrupt, trailer)
	}
	covered := len(data) - trailerLen
	if crc32.Checksum(data[:covered], crcTable) != sum {
		return 0, nil, fmt.Errorf("%w: snapshot checksum mismatch", ErrCorrupt)
	}
	return lsn, payload, nil
}

// WriteSnapshot durably writes payload as the snapshot covering lsn:
// temp file, sync, then atomic rename to snap-<lsn>.snap.
func WriteSnapshot(fs FS, name string, lsn uint64, payload []byte) error {
	final := fmt.Sprintf("%s%016d%s", snapPrefix, lsn, snapSuffix)
	tmp := final + tmpSuffix
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(EncodeSnapshot(lsn, payload)); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmp, final); err != nil {
		return err
	}
	if name != "" {
		metrics.Default().Counter(metrics.Labels("snapshot_total", "store", name)).Inc()
		metrics.Default().Gauge(metrics.Labels("store_snapshot_lsn", "store", name)).Set(int64(lsn))
	}
	return nil
}

// Snapshot is the result of LatestSnapshot.
type Snapshot struct {
	// LSN is the WAL position the payload covers (0 = no snapshot:
	// recovery replays the whole log).
	LSN     uint64
	Payload []byte
	// Skipped counts newer snapshot files that failed verification and
	// were passed over (bitrot); the caller must confirm the WAL still
	// reaches back far enough before trusting the older base.
	Skipped int
}

// LatestSnapshot returns the newest snapshot that verifies, skipping
// damaged ones, and removes stray temp files left by interrupted
// writes. No snapshot at all is not an error — LSN 0 means "start from
// empty".
func LatestSnapshot(fs FS) (Snapshot, error) {
	names, err := fs.List()
	if err != nil {
		return Snapshot{}, err
	}
	var snaps []string
	for _, n := range names {
		if strings.HasSuffix(n, tmpSuffix) {
			// An interrupted snapshot write (crash before rename); the
			// bytes under the final name are still whole, so the temp is
			// pure litter.
			fs.Remove(n)
			continue
		}
		if strings.HasPrefix(n, snapPrefix) && strings.HasSuffix(n, snapSuffix) {
			snaps = append(snaps, n)
		}
	}
	sort.Strings(snaps) // zero-padded LSNs: lexicographic == numeric
	var out Snapshot
	for i := len(snaps) - 1; i >= 0; i-- {
		data, err := readAll(fs, snaps[i])
		if err != nil {
			return Snapshot{}, err
		}
		lsn, payload, err := DecodeSnapshot(data)
		if err != nil {
			out.Skipped++
			continue
		}
		if want, ok := parseSnapName(snaps[i]); ok && want != lsn {
			out.Skipped++
			continue
		}
		out.LSN = lsn
		out.Payload = payload
		return out, nil
	}
	return out, nil
}

// PruneSnapshots removes every verified-older snapshot file than keep
// (the LSN of the one to retain).
func PruneSnapshots(fs FS, keep uint64) error {
	names, err := fs.List()
	if err != nil {
		return err
	}
	for _, n := range names {
		lsn, ok := parseSnapName(n)
		if ok && lsn < keep {
			if err := fs.Remove(n); err != nil {
				return err
			}
		}
	}
	return nil
}

// parseSnapName extracts the LSN from snap-<n>.snap.
func parseSnapName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(snapPrefix):len(name)-len(snapSuffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}
