package bind

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hns/internal/push"
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

	mu     sync.Mutex
	serial uint32
	deltaN int
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

// DeltaRefreshes reports how many of those transfers were served
// incrementally (IXFR) rather than as full zone copies.
func (s *Secondary) DeltaRefreshes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deltaN
}

// Refresh checks the primary's serial and transfers the zone if it moved,
// reporting whether a transfer happened. The serial probe is cheap; an
// incremental (IXFR) transfer is tried first and pays only per changed
// record, falling back to the full per-record transfer cost when the
// primary cannot prove diff continuity from our serial. Either way the
// change is journaled by the mirror's server, so a restart (Boot) resumes
// from it.
func (s *Secondary) Refresh(ctx context.Context) (bool, error) {
	remote, err := s.primary.Serial(ctx, s.origin)
	if err != nil {
		return false, fmt.Errorf("bind: secondary %s: %w", s.origin, err)
	}
	s.mu.Lock()
	current := s.serial
	s.mu.Unlock()
	if remote == current {
		return false, nil
	}
	serial, delta := uint32(0), false
	if current != 0 {
		serial, delta = s.refreshDelta(ctx, current)
	}
	if !delta {
		if serial, err = s.refreshFull(ctx); err != nil {
			return false, fmt.Errorf("bind: secondary %s: %w", s.origin, err)
		}
	}
	s.mu.Lock()
	s.serial = serial
	if delta {
		s.deltaN++
	}
	s.mu.Unlock()
	return true, nil
}

// Follow keeps the mirror current until stop is called. It subscribes
// to the primary's NOTIFY stream and refreshes the moment a transaction
// (or a reset) arrives, and refreshes every interval regardless: push
// narrows the lag, polling bounds it. A primary that refuses the
// subscription (no push plane) leaves the poll alone carrying the
// mirror. The subscription starts from the mirror's serial, so a
// transaction that lands before it stands is caught up, not missed.
// report, when non-nil, hears each refresh's outcome.
func (s *Secondary) Follow(every time.Duration, report func(moved bool, err error)) (stop func()) {
	kick := make(chan struct{}, 1)
	poke := func() {
		select {
		case kick <- struct{}{}:
		default:
		}
	}
	sub := NewSubscriber(s.primary, SubscribeConfig{
		Zone:     s.origin,
		OnNotify: func(push.Notification) { poke() },
		OnReset:  poke,
	})
	sub.lastSerial = s.Serial()
	sub.Start()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
			case <-kick:
			case <-ctx.Done():
				return
			}
			moved, err := s.Refresh(ctx)
			if report != nil {
				report(moved, err)
			}
		}
	}()
	return func() {
		cancel()
		sub.Close()
		wg.Wait()
	}
}

// refreshDelta replays the primary's transactions since serial current
// through the server's one journaled path, each at the primary's serial
// and republished as the one NOTIFY the primary sent. ok=false — a serial
// older than the primary's history, or a transaction that will not apply
// to a mirror that should equal the primary — sends the caller to a full
// transfer.
func (s *Secondary) refreshDelta(ctx context.Context, current uint32) (serial uint32, ok bool) {
	serial, diffs, ok, err := s.primary.TransferDelta(ctx, s.origin, current)
	if err != nil || !ok {
		return 0, false
	}
	for _, d := range diffs {
		if _, _, err := s.server.apply(s.zone, d.Ops, d.Serial); err != nil {
			return 0, false
		}
	}
	return serial, true
}

// refreshFull installs, journals and publishes a full transfer under the
// journal lock, as apply does a transaction; it names no change set, so
// subscribers hear one zone-level event.
func (s *Secondary) refreshFull(ctx context.Context) (uint32, error) {
	serial, rrs, err := s.primary.Transfer(ctx, s.origin)
	if err != nil {
		return 0, err
	}
	srv := s.server
	srv.journalMu.Lock()
	defer srv.journalMu.Unlock()
	if err := s.zone.Replace(rrs, serial); err != nil {
		return 0, err
	}
	if srv.journal != nil {
		if err := srv.journal.LogImage(s.origin, s.zone.image()); err != nil {
			return 0, fmt.Errorf("transfer not durable: %w", err)
		}
	}
	srv.publish(s.origin, nil, serial)
	return serial, nil
}
