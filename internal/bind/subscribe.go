package bind

// Client side of the push-invalidation plane: the incremental-transfer
// call and the Subscriber state machine.
//
// A Subscriber owns one dedicated connection (hrpc.StickyConn) to the
// authoritative server. It registers interest in a zone (optionally a
// name set), then sits on the connection's push channel: every
// transaction the server applies arrives as one NOTIFY frame, decoded and
// handed to OnNotify — typically a cache-invalidation hook. When the
// connection dies it redials and resubscribes *with the last serial it
// saw*; the server's reply serial reveals whether updates were missed
// while disconnected, and the gap is closed by an IXFR catch-up that
// replays exactly the missed transactions as synthetic notifications. If
// the zone's history cannot cover the gap, OnReset fires instead — the
// consumer must treat everything it cached as suspect.
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
	// OnNotify receives each invalidation, one per transaction — live
	// pushes and catch-up replays alike. It runs on the connection's reader
	// goroutine, so it must be fast (a cache delete, a channel send).
	OnNotify func(push.Notification)
	// OnReset fires when continuity was lost: the server could not
	// replay the gap, so anything cached from this zone is suspect.
	// Optional; when nil a reset simply resumes from the new serial.
	OnReset func()
	// Backoff is the wait between redial attempts after a connection
	// death (default 500ms). Real time, not simulated: connection
	// maintenance is a background activity, priced to no caller.
	Backoff time.Duration
	// Metrics receives the push_client_* counters (default
	// metrics.Default()).
	Metrics *metrics.Registry
}

// Subscriber maintains one push subscription across connection deaths.
type Subscriber struct {
	c   *HRPCClient
	cfg SubscribeConfig

	notified   *metrics.Counter // push_client_notify_total
	resubs     *metrics.Counter // push_client_resubscribe_total
	caughtUp   *metrics.Counter // push_client_catchup_records_total
	resets     *metrics.Counter // push_client_resets_total
	degradedCt *metrics.Counter // push_client_degraded_total

	mu         sync.Mutex
	lastSerial uint32
	active     bool
	degraded   bool
	conn       *hrpc.StickyConn
	closed     bool
	changed    chan struct{} // closed when active, degraded or lastSerial moves; nil until a waiter asks

	wg sync.WaitGroup
}

// errDegrade marks conditions under which the subscriber permanently
// falls back to TTL polling rather than retrying.
var errDegrade = errors.New("bind: push unavailable, degrading to poll")

// NewSubscriber creates a Subscriber speaking to c's server. Call Start
// to begin; the zero value of lastSerial means "no history" — the first
// successful subscribe adopts the server's serial without catch-up.
func NewSubscriber(c *HRPCClient, cfg SubscribeConfig) *Subscriber {
	if cfg.Backoff <= 0 {
		cfg.Backoff = 500 * time.Millisecond
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.Default()
	}
	r := cfg.Metrics
	return &Subscriber{
		c:          c,
		cfg:        cfg,
		notified:   r.Counter("push_client_notify_total"),
		resubs:     r.Counter("push_client_resubscribe_total"),
		caughtUp:   r.Counter("push_client_catchup_records_total"),
		resets:     r.Counter("push_client_resets_total"),
		degradedCt: r.Counter("push_client_degraded_total"),
	}
}

// Start launches the maintenance loop. It returns immediately; use
// Active to observe whether the subscription is live.
func (s *Subscriber) Start() {
	s.wg.Add(1)
	go s.run()
}

// Close tears the subscription down and waits for the loop to exit.
func (s *Subscriber) Close() error {
	s.mu.Lock()
	s.closed = true
	conn := s.conn
	s.conn = nil
	s.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
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
// processed (via push or catch-up): every invalidation up to this
// serial has been delivered to OnNotify and OnNotify has returned.
func (s *Subscriber) LastSerial() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSerial
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

// changedLocked wakes the Changed waiters; s.mu must be held.
func (s *Subscriber) changedLocked() {
	if s.changed != nil {
		close(s.changed)
		s.changed = nil
	}
}

// advance raises LastSerial to serial.
func (s *Subscriber) advance(serial uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if serial > s.lastSerial {
		s.lastSerial = serial
		s.changedLocked()
	}
}

func (s *Subscriber) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Subscriber) run() {
	defer s.wg.Done()
	for !s.isClosed() {
		err := s.session()
		if errors.Is(err, errDegrade) {
			s.mu.Lock()
			s.degraded = true
			s.changedLocked()
			s.mu.Unlock()
			s.degradedCt.Inc()
			return
		}
		if s.isClosed() {
			return
		}
		_ = err // transient: dial failure or conn death; retry after backoff
		time.Sleep(s.cfg.Backoff)
	}
}

// session runs one subscription lifetime: dial, subscribe, catch up,
// then block until the connection dies or the Subscriber closes.
func (s *Subscriber) session() error {
	// Subscription upkeep is background work: no caller's meter rides
	// this context, so nobody's bill moves.
	ctx := context.Background()
	sc, err := s.c.c.DialSticky(ctx, s.c.b)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		sc.Close()
		return nil
	}
	s.conn = sc
	s.mu.Unlock()

	died := make(chan struct{})
	var dieOnce sync.Once
	ok := sc.SetPushHandler(func(body []byte, perr error) {
		if perr != nil {
			dieOnce.Do(func() { close(died) })
			return
		}
		n, derr := push.DecodeNotification(body)
		if derr != nil {
			return // malformed frame: ignore, polling still bounds staleness
		}
		if s.cfg.OnNotify != nil {
			s.cfg.OnNotify(n)
		}
		// The serial advances only after OnNotify returns, so LastSerial
		// is a processed watermark: once it reaches serial S, every
		// invalidation up to S has been applied, not merely received.
		s.advance(n.Serial)
		s.notified.Inc()
	})
	if !ok {
		sc.Close()
		return fmt.Errorf("%w: connection cannot receive pushes", errDegrade)
	}

	s.mu.Lock()
	since := s.lastSerial
	s.mu.Unlock()
	ret, err := sc.Call(ctx, procSubscribe, marshal.StructV(
		marshal.Str(s.cfg.Zone), namesToList(s.cfg.Names), marshal.U32(since),
	))
	if err != nil {
		sc.Close()
		var rf *hrpc.RemoteFault
		if errors.As(err, &rf) {
			// Unsupported, refused, or table full: the server answered and
			// said no. Stop asking.
			return fmt.Errorf("%w: %v", errDegrade, err)
		}
		return err // transport trouble: retry
	}
	rcode, _ := ret.Items[0].AsU32()
	serial, _ := ret.Items[1].AsU32()
	if RCode(rcode) != RCodeOK {
		sc.Close()
		return fmt.Errorf("%w: subscribe rcode %s", errDegrade, RCode(rcode))
	}
	s.resubs.Inc()

	if since != 0 && serial != since {
		s.catchUp(ctx, since, serial)
	} else {
		s.advance(serial)
	}

	s.mu.Lock()
	s.active = true
	s.changedLocked()
	s.mu.Unlock()
	<-died
	s.mu.Lock()
	s.active = false
	s.changedLocked()
	if s.conn == sc {
		s.conn = nil
	}
	s.mu.Unlock()
	sc.Close()
	return nil
}

// catchUp closes the gap between since and the server's serial by
// replaying the missed mutations as synthetic notifications — the
// "resubscribe with serial" path that guarantees zero missed
// invalidations across a connection death.
func (s *Subscriber) catchUp(ctx context.Context, since, serial uint32) {
	gotSerial, diffs, ok, err := s.c.TransferDelta(ctx, s.cfg.Zone, since)
	if err != nil || !ok {
		// Older than the history (or IXFR unusable): continuity is lost.
		s.resets.Inc()
		if s.cfg.OnReset != nil {
			s.cfg.OnReset()
		}
		s.advance(serial)
		return
	}
	for _, d := range diffs {
		s.caughtUp.Inc()
		if s.cfg.OnNotify != nil {
			s.cfg.OnNotify(push.Notification{Zone: s.cfg.Zone, Names: opNames(d.Ops), Serial: d.Serial})
		}
	}
	s.advance(gotSerial)
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
