package bind

// Client side of the push-invalidation plane: the incremental-transfer
// call and the Subscriber state machine.
//
// A Subscriber is a registration on its hrpc.Client (Listen), not a
// connection of its own: it subscribes to a zone (optionally a name set)
// over the endpoint's one shared connection and hands each NOTIFY frame
// its subscription matches to OnNotify — typically a cache-invalidation
// hook. A plain subscription hears every transaction; a callback one
// only those that could invalidate what its client has read. When that
// connection dies it resubscribes at once *with the last serial it saw*;
// the server's reply serial reveals whether updates were missed while
// disconnected, and an IXFR catch-up replays exactly the missed
// transactions as synthetic notifications. If the zone's history cannot
// cover the gap, OnReset fires instead — the consumer must treat
// everything it cached as suspect.
//
// Degradation is automatic and latched: a server without a push plane,
// a connection that cannot carry pushes (a datagram transport), or a
// full subscriber table all mark the Subscriber degraded, after
// which it stays silent and the consumer's TTL polling — which push
// never replaces, only quiets — carries on exactly as before.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"hns/internal/hrpc"
	"hns/internal/marshal"
	"hns/internal/metrics"
	"hns/internal/push"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// TransferDelta asks the server for the zone's changes since serial
// since. ok=false means the zone's history no longer reaches back to
// since and the caller should fall back to a full Transfer. An
// up-to-date caller gets (serial, nil, true).
func (c *HRPCClient) TransferDelta(ctx context.Context, zone string, since uint32) (uint32, []DiffRec, bool, error) {
	simtime.Charge(ctx, simtime.GenMarshalRequest)
	ret, err := c.c.Call(ctx, c.b, procIxfr, marshal.StructV(
		marshal.Str(zone), marshal.U32(since),
	))
	if err != nil {
		return 0, nil, false, err
	}
	rcode, _ := ret.Items[0].AsU32()
	serial, _ := ret.Items[1].AsU32()
	full, _ := ret.Items[2].AsU32()
	if RCode(rcode) != RCodeOK {
		return serial, nil, false, fmt.Errorf("bind: ixfr refused: %s", RCode(rcode))
	}
	if full == ixfrFull {
		return serial, nil, false, nil
	}
	payload, err := ret.Items[3].AsBytes()
	if err != nil {
		return serial, nil, false, err
	}
	diffs, err := decodeDiffs(zone, payload)
	if err != nil {
		return serial, nil, false, err
	}
	// Incremental demarshalling is priced per record moved, like the
	// full transfer — just over far fewer records.
	marshal.ChargeRecords(ctx, marshal.StyleGenerated, len(diffs))
	return serial, diffs, true, nil
}

// SubscribeConfig configures a Subscriber.
type SubscribeConfig struct {
	// Zone is the zone whose updates to watch (required).
	Zone string
	// Names, when non-empty, narrows delivery to transactions touching
	// one of these owner names. Zone-level events (nil-Names
	// notifications) are always delivered.
	Names []string
	// Callback asks for callback delivery: the server sends a
	// transaction only when this client's connection has read one of
	// its names since the last NOTIFY naming it there, so no NOTIFY is
	// sent that would invalidate nothing the client holds. It holds only
	// when every read rides the subscription's connection
	// (hrpc.Client.OneConn); otherwise the subscription takes every
	// transaction. LastSerial skips the serials not sent: wait with Sync.
	Callback bool
	// OnNotify receives each invalidation, one per transaction sent —
	// live pushes and catch-up replays alike. It runs on the connection's
	// reader goroutine, so it must be fast (a cache delete, a channel
	// send).
	OnNotify func(push.Notification)
	// OnReset fires when continuity was lost: the server could not
	// replay the gap, so anything cached from this zone is suspect.
	// Optional; when nil a reset simply resumes from the new serial.
	OnReset func()
	// Metrics receives the push_client_* counters (default
	// metrics.Default()).
	Metrics *metrics.Registry
}

// Subscriber maintains one push subscription across connection deaths.
type Subscriber struct {
	c      *HRPCClient
	cfg    SubscribeConfig
	filter push.Subscription // as the server holds it: the frames that are this subscription's

	notified   *metrics.Counter // push_client_notify_total
	resubs     *metrics.Counter // push_client_resubscribe_total
	caughtUp   *metrics.Counter // push_client_catchup_records_total
	resets     *metrics.Counter // push_client_resets_total
	degradedCt *metrics.Counter // push_client_degraded_total

	// ctx, meterless (upkeep bills no caller), carries the calls; Close cancels it.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu         sync.Mutex
	lastSerial uint32
	active     bool
	degraded   bool
	reg        hrpc.Registration   // the registration standing while active
	held       []push.Notification // frames heard while not active: a subscribe and its catch-up run
	floor      uint32              // the serial the latest subscribe and its catch-up covered
	changed    chan struct{}       // closed when active, degraded or lastSerial moves; nil until a waiter asks
}

// NewSubscriber creates a Subscriber speaking to c's server. Call Start
// to begin; the zero value of lastSerial means "no history" — the first
// successful subscribe adopts the server's serial without catch-up.
func NewSubscriber(c *HRPCClient, cfg SubscribeConfig) *Subscriber {
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.Default()
	}
	if cfg.OnNotify == nil {
		cfg.OnNotify = func(push.Notification) {}
	}
	zone, _ := CanonicalName(cfg.Zone) // a name the server refuses matches nothing
	r := cfg.Metrics
	ctx, cancel := context.WithCancel(context.Background())
	return &Subscriber{
		c:          c,
		cfg:        cfg,
		filter:     push.Subscription{Zone: zone, Names: cfg.Names},
		notified:   r.Counter("push_client_notify_total"),
		resubs:     r.Counter("push_client_resubscribe_total"),
		caughtUp:   r.Counter("push_client_catchup_records_total"),
		resets:     r.Counter("push_client_resets_total"),
		degradedCt: r.Counter("push_client_degraded_total"),
		ctx:        ctx,
		cancel:     cancel,
	}
}

// Start launches the maintenance loop. It returns immediately; use
// Active to observe whether the subscription is live.
func (s *Subscriber) Start() {
	s.wg.Add(1)
	go s.run()
}

// Close stops delivery and waits for the loop to exit. The connection is
// the client's and stays open, so the server holds the subscription until
// it closes; what it pushes meanwhile is dropped here.
func (s *Subscriber) Close() error {
	s.cancel()
	s.wg.Wait()
	return nil
}

// Active reports whether a live push subscription currently stands.
func (s *Subscriber) Active() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active
}

// Degraded reports whether the subscriber has permanently fallen back
// to TTL polling (subscription refused or table overflow).
func (s *Subscriber) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// LastSerial reports the newest zone serial the subscriber has fully
// processed (via push, catch-up or Sync): every invalidation up to this
// serial has been delivered to OnNotify and OnNotify has returned.
func (s *Subscriber) LastSerial() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSerial
}

// errDegraded fails a Sync on a subscriber that polls instead.
var errDegraded = errors.New("bind: subscription degraded to polling")

// Sync raises LastSerial to the serial the server's NOTIFYs had covered
// when one Serial exchange on the subscription's connection was answered.
// The server answers its serial only between transactions, so every
// frame owed up to it was pushed on that connection before the reply, and
// its OnNotify has returned when Sync does. While the subscription is
// down, or the exchange rode another connection, Sync waits for it to
// stand again; it fails once the subscriber is degraded or ctx ends.
func (s *Subscriber) Sync(ctx context.Context) error {
	for {
		changed := s.Changed()
		s.mu.Lock()
		active, degraded, reg := s.active, s.degraded, s.reg
		s.mu.Unlock()
		if degraded {
			return errDegraded
		}
		if active {
			ret, on, err := s.c.c.Listen(ctx, s.c.b, procSerial, marshal.StructV(marshal.Str(s.cfg.Zone)), func([]byte, error) {})
			if err != nil {
				return err
			}
			on.Stop()
			if rcode := RCode(ret.Items[0].Num); rcode != RCodeOK {
				return fmt.Errorf("bind: serial refused: %s", rcode)
			}
			if on.Shares(reg) {
				s.set(func() { s.lastSerial = max(s.lastSerial, uint32(ret.Items[1].Num)) })
				return nil
			}
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Changed returns a channel closed at the next change of Active, Degraded
// or LastSerial. A waiter takes it, then checks the state, and blocks on it
// only while the state is not yet what it wants.
func (s *Subscriber) Changed() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.changed == nil {
		s.changed = make(chan struct{})
	}
	return s.changed
}

// set applies change under s.mu and wakes the Changed waiters.
func (s *Subscriber) set(change func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	change()
	if s.changed != nil {
		close(s.changed)
		s.changed = nil
	}
}

// run keeps the subscription standing until Close: it subscribes, rides
// the subscription until its connection dies, and subscribes again at
// once; a failed attempt first waits out hrpc's retransmission schedule.
func (s *Subscriber) run() {
	defer s.wg.Done()
	defer s.set(func() { s.active = false })
	wait := simtime.RetransmitTimeout
	for {
		died, reg, err := s.subscribe()
		switch {
		case err == nil:
			wait = simtime.RetransmitTimeout
			select {
			case <-died:
				reg.Stop() // the death may be a failed attempt's, not this registration's
				s.set(func() { s.active = false })
				continue
			case <-s.ctx.Done():
				reg.Stop()
				return
			}
		case transport.CodeOf(err).Answered():
			// The server said no (unsupported, refused, table full), or
			// the connection has no push channel: poll by TTL for good.
			s.set(func() { s.degraded = true })
			s.degradedCt.Inc()
			return
		case err == transport.ErrClosed:
			return // the client is closed: there is nothing to ride
		}
		select {
		case <-time.After(wait):
		case <-s.ctx.Done():
			return
		}
		wait = min(2*wait, 4*simtime.RetransmitTimeout)
	}
}

// subscribe registers the subscription from the last serial seen, over
// the client's shared connection, and catches up on what the server
// applied since. A callback subscription is asked for only when every
// read of the client's rides this connection. died hears the death of
// that connection; reg withdraws the registration.
func (s *Subscriber) subscribe() (died <-chan struct{}, reg hrpc.Registration, err error) {
	var since uint32
	s.set(func() { since, s.held = s.lastSerial, nil })
	death := make(chan struct{})
	die := sync.OnceFunc(func() { close(death) }) // a retried attempt's connection may die too
	mode := uint32(subscribeEvery)
	if s.cfg.Callback && s.c.c.OneConn(s.c.b.Addr) {
		mode = subscribeCallback
	}
	ret, reg, err := s.c.c.Listen(s.ctx, s.c.b, procSubscribe, marshal.StructV(
		marshal.Str(s.cfg.Zone), namesToList(s.cfg.Names), marshal.U32(since), marshal.U32(mode),
	), func(body []byte, err error) {
		if err != nil {
			die()
		} else {
			s.hear(body)
		}
	})
	if err != nil {
		return nil, reg, err
	}
	rcode, _ := ret.Items[0].AsU32()
	serial, _ := ret.Items[1].AsU32()
	if RCode(rcode) != RCodeOK {
		reg.Stop()
		return nil, reg, &NotFoundError{Name: s.cfg.Zone, Type: TypeSOA, RCode: RCode(rcode)} // no such zone there
	}
	s.resubs.Inc()
	reset := false
	if since != 0 && serial != since {
		serial, reset = s.catchUp(since, serial)
	}
	s.set(func() {
		s.floor, s.reg = serial, reg
		if reset { // the server's serial may have gone back: adopt it
			s.lastSerial = serial
		} else {
			s.lastSerial = max(s.lastSerial, serial)
		}
	})
	// Frames heard meanwhile were held back; those the catch-up did not
	// cover go out now, in order.
	for {
		var held []push.Notification
		s.set(func() { held, s.held, s.active = s.held, nil, s.held == nil })
		if held == nil {
			return death, reg, nil
		}
		for _, n := range held {
			if n.Serial > serial {
				s.deliver(n)
			}
		}
	}
}

// hear takes a frame pushed on the shared connection: it is this
// subscription's only if it matches, waits in held until active, and is
// dropped if already covered (a transaction's frame can trail its replay).
func (s *Subscriber) hear(body []byte) {
	n, err := push.DecodeNotification(body)
	if err != nil || !s.filter.Matches(n.Zone, n.Names) {
		return // malformed, or another subscription's: polling still bounds staleness
	}
	s.mu.Lock()
	live, covered := s.active, n.Serial <= s.floor
	if !live {
		s.held = append(s.held, n)
	}
	s.mu.Unlock()
	if live && !covered {
		s.deliver(n)
	}
}

// deliver hands n to OnNotify. The serial advances only after OnNotify
// returns, so LastSerial is a processed watermark: once it reaches serial
// S, every invalidation up to S has been applied, not merely received.
func (s *Subscriber) deliver(n push.Notification) {
	s.cfg.OnNotify(n)
	s.set(func() { s.lastSerial = max(s.lastSerial, n.Serial) })
	s.notified.Inc()
}

// catchUp closes the gap between since and the server's serial by
// replaying the missed mutations this subscription matches as synthetic
// notifications — the "resubscribe with serial" path that guarantees zero
// missed invalidations across a connection death. It returns the serial
// the replay reached, or the server's serial and reset when it could not
// replay.
func (s *Subscriber) catchUp(since, serial uint32) (uint32, bool) {
	gotSerial, diffs, ok, err := s.c.TransferDelta(s.ctx, s.cfg.Zone, since)
	if err != nil || !ok {
		// Older than the history (or IXFR unusable): continuity is lost.
		s.resets.Inc()
		if s.cfg.OnReset != nil {
			s.cfg.OnReset()
		}
		return serial, true
	}
	for _, d := range diffs {
		n := push.Notification{Zone: s.filter.Zone, Names: opNames(nil, d.Ops), Serial: d.Serial}
		if !s.filter.Matches(n.Zone, n.Names) {
			continue
		}
		s.caughtUp.Inc()
		s.cfg.OnNotify(n)
	}
	return gotSerial, false
}

// namesToList marshals a name set for the Subscribe call.
func namesToList(names []string) marshal.Value {
	items := make([]marshal.Value, len(names))
	for i, n := range names {
		items[i] = marshal.Str(n)
	}
	return marshal.ListV(items...)
}

// Subscribe creates and starts a Subscriber against this client's
// server — the one-call form consumers reach through optional interface
// assertion (see core.MetaSubscriber).
func (c *HRPCClient) Subscribe(cfg SubscribeConfig) *Subscriber {
	s := NewSubscriber(c, cfg)
	s.Start()
	return s
}
