package bind

import (
	"context"
	"fmt"
	"sync"
)

// Secondary mirrors one zone from a primary server by serial-checked zone
// transfers — the replication arrangement real BIND used and the paper's
// implementation leaned on ("its implementation must be distributed and
// replicated for the usual reasons of performance, availability, and
// scalability"; the preloading experiment reuses exactly this transfer
// path). A Secondary embeds its own authoritative Server, so it answers
// queries for the mirrored zone like any other server.
type Secondary struct {
	primary *HRPCClient
	origin  string
	server  *Server
	zone    *Zone

	mu       sync.Mutex
	serial   uint32
	refreshN int
	deltaN   int
	journal  ZoneStore
}

// NewSecondary creates a secondary for the named zone, serving on a local
// Server for host. The initial contents are empty until Refresh runs.
func NewSecondary(primary *HRPCClient, zoneOrigin, host string) (*Secondary, error) {
	z, err := NewZone(zoneOrigin, false) // mirrors never accept updates
	if err != nil {
		return nil, err
	}
	srv := NewServer(host)
	if err := srv.AddZone(z); err != nil {
		return nil, err
	}
	return &Secondary{primary: primary, origin: z.Origin(), server: srv, zone: z}, nil
}

// Server returns the serving face of the mirror.
func (s *Secondary) Server() *Server { return s.server }

// Serial reports the serial of the last transferred contents (0 before
// the first refresh).
func (s *Secondary) Serial() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.serial
}

// Refreshes reports how many refreshes performed a transfer.
func (s *Secondary) Refreshes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refreshN
}

// DeltaRefreshes reports how many of those transfers were served
// incrementally (IXFR) rather than as full zone copies.
func (s *Secondary) DeltaRefreshes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deltaN
}

// Restore seeds the mirror from a zone recovered from disk (which it
// empties), as a restarted bindd does: the next Refresh probes the
// primary's serial and transfers only if it moved, instead of paying a
// cold full transfer.
func (s *Secondary) Restore(recovered *Zone) error {
	if err := s.zone.Adopt(recovered); err != nil {
		return err
	}
	s.mu.Lock()
	s.serial = s.zone.Serial()
	s.mu.Unlock()
	return nil
}

// SetJournal journals every subsequently transferred zone content, so a
// restart can Restore the mirror instead of re-transferring it.
func (s *Secondary) SetJournal(j ZoneStore) {
	s.mu.Lock()
	s.journal = j
	s.mu.Unlock()
}

// Refresh checks the primary's serial and transfers the zone if it moved,
// reporting whether a transfer happened. The serial probe is cheap; an
// incremental (IXFR) transfer is tried first and pays only per changed
// record, falling back to the full per-record transfer cost when the
// primary cannot prove diff continuity from our serial.
func (s *Secondary) Refresh(ctx context.Context) (bool, error) {
	remote, err := s.primary.Serial(ctx, s.origin)
	if err != nil {
		return false, fmt.Errorf("bind: secondary %s: %w", s.origin, err)
	}
	s.mu.Lock()
	current := s.serial
	journal := s.journal
	s.mu.Unlock()
	if remote == current {
		return false, nil
	}
	if current != 0 {
		if done, err := s.refreshDelta(ctx, current, journal); err == nil && done {
			return true, nil
		}
		// Any incremental failure — a serial older than the primary's
		// history, an apply error — falls through to the full transfer
		// below.
	}
	serial, rrs, err := s.primary.Transfer(ctx, s.origin)
	if err != nil {
		return false, fmt.Errorf("bind: secondary %s: %w", s.origin, err)
	}
	if err := s.zone.Replace(rrs, serial); err != nil {
		return false, err
	}
	if journal != nil {
		if err := journal.LogReplace(s.origin, serial, rrs); err != nil {
			return false, fmt.Errorf("bind: secondary %s: transfer not durable: %w", s.origin, err)
		}
	}
	// A full transfer names no change set: the mirror's own subscribers
	// hear one zone-level event.
	s.server.publishUpdate(s.origin, "", serial)
	s.mu.Lock()
	s.serial = serial
	s.refreshN++
	s.mu.Unlock()
	return true, nil
}

// refreshDelta attempts an incremental refresh from serial current.
// done=false with a nil error means the incremental path was unusable
// (not an error: the caller takes a full transfer).
func (s *Secondary) refreshDelta(ctx context.Context, current uint32, journal ZoneStore) (bool, error) {
	serial, diffs, ok, err := s.primary.TransferDelta(ctx, s.origin, current)
	if err != nil || !ok {
		return false, err
	}
	// Replay the primary's mutations in order. The mirror's state equals
	// the primary's at serial current, so each op must apply cleanly; any
	// surprise aborts to a full transfer rather than half-applying.
	for _, d := range diffs {
		switch d.Op {
		case UpdateAdd:
			err = s.zone.Add(d.RR)
		case UpdateRemove:
			err = s.zone.Remove(d.RR)
		default:
			err = fmt.Errorf("bind: unknown diff op %d", d.Op)
		}
		if err != nil {
			return false, fmt.Errorf("bind: secondary %s: diff apply: %w", s.origin, err)
		}
		if journal != nil {
			if err := journal.LogUpdate(s.origin, d.Op, d.RR, d.Serial); err != nil {
				return false, fmt.Errorf("bind: secondary %s: delta not durable: %w", s.origin, err)
			}
		}
		// Republish per name at the primary's serial, as the primary did,
		// so the mirror's subscribers invalidate what moved and nothing else.
		s.server.publishUpdate(s.origin, d.RR.Name, d.Serial)
	}
	// Pin the exact transferred serial: local Add/Remove bumped ours in
	// lockstep, so this keeps the history the diffs just extended.
	s.zone.ForceSerial(serial)
	s.mu.Lock()
	s.serial = serial
	s.refreshN++
	s.deltaN++
	s.mu.Unlock()
	return true, nil
}
