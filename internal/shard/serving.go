package shard

import (
	"context"
	"fmt"
	"sync"

	"hns/internal/bind"
	"hns/internal/metrics"
)

// ServingConfig configures Serve.
type ServingConfig struct {
	// ID is this shard's member ID; it must appear in Map.Members.
	ID string
	// Zone is the sharded zone (default "hns").
	Zone string
	// Map is the initial shard map.
	Map Map
	// MapTTL is the installed map record's TTL in seconds (0 =
	// DefaultMapTTL).
	MapTTL uint32
	// Metrics receives the shard_* series; nil uses metrics.Default().
	Metrics *metrics.Registry
}

// Serving is the server side of a shard: it gates dynamic updates by
// ownership (answering NOTOWNER with the owner it would route to),
// keeps the shard-map record installed in the zone, and exposes the
// shard_* series hnsctl shard renders.
//
// Ownership gates updates ONLY. Queries and transfers are never gated,
// so during a rebalance the old owner keeps answering for records it no
// longer owns until the new owner has pulled them — the no-NXDOMAIN
// handoff invariant.
type Serving struct {
	id   string
	zone string
	srv  *bind.Server

	mu sync.RWMutex
	m  Map

	notOwner *metrics.Counter // shard_notowner_total{shard=...}
	epoch    *metrics.Gauge   // shard_map_epoch{shard=...}
}

// Serve installs the ownership gate and the shard-map record on srv.
// The server must already be authoritative for the zone (with updates
// enabled — the map record is installed through the ordinary update
// path so it is journaled and invalidates cached replies).
func Serve(srv *bind.Server, cfg ServingConfig) (*Serving, error) {
	zone := cfg.Zone
	if zone == "" {
		zone = "hns"
	}
	if err := cfg.Map.Validate(); err != nil {
		return nil, err
	}
	if _, ok := cfg.Map.Member(cfg.ID); !ok {
		return nil, fmt.Errorf("shard: id %q not in map epoch %d", cfg.ID, cfg.Map.Epoch)
	}
	z := srv.Zone(zone)
	if z == nil {
		return nil, fmt.Errorf("shard: server not authoritative for %q", zone)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.Default()
	}
	s := &Serving{
		id:   cfg.ID,
		zone: zone,
		srv:  srv,
		m:    cfg.Map,
		notOwner: reg.Counter(metrics.Labels("shard_notowner_total",
			"shard", cfg.ID)),
		epoch: reg.Gauge(metrics.Labels("shard_map_epoch", "shard", cfg.ID)),
	}
	reg.GaugeFunc(metrics.Labels("shard_zone_records", "shard", cfg.ID),
		func() int64 { return int64(z.Count()) })
	s.epoch.Set(int64(cfg.Map.Epoch))
	// Gate after install: the install itself must not be vetted against
	// a gate that is not serving yet.
	if err := s.installMap(cfg.Map, cfg.MapTTL); err != nil {
		return nil, err
	}
	srv.SetUpdateGate(s)
	return s, nil
}

// ID reports the shard's member ID.
func (s *Serving) ID() string { return s.id }

// Map reports the shard's current map.
func (s *Serving) Map() Map {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m
}

// AllowUpdate implements bind.UpdateGate: the map record itself and any
// name this shard owns pass; everything else is redirected to its owner.
func (s *Serving) AllowUpdate(zone, name string) error {
	if zone != s.zone {
		return nil // other zones on this server are unsharded
	}
	cname, err := bind.CanonicalName(name)
	if err != nil {
		return nil // let the zone's own validation produce the error
	}
	if cname == MapName(s.zone) {
		return nil // the map record is replicated on every shard
	}
	s.mu.RLock()
	m := s.m
	s.mu.RUnlock()
	owner, ok := m.Owner(cname)
	if !ok || owner.ID == s.id {
		return nil
	}
	s.notOwner.Inc()
	return &bind.NotOwnerError{
		Name:      cname,
		Zone:      zone,
		Epoch:     m.Epoch,
		OwnerID:   owner.ID,
		OwnerAddr: owner.Addr,
	}
}

// SetMap installs a new shard map — the epoch bump. The new map must
// carry a strictly higher epoch and still contain this shard. The gate
// switches to the new assignment immediately (updates for newly lost
// names start redirecting) and the zone's map record is rotated so
// clients pick the bump up on their next TTL refresh. Records this
// shard no longer owns are NOT dropped: the old owner serves them until
// the new owner's rebalance pull completes.
func (s *Serving) SetMap(m Map, ttl uint32) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if _, ok := m.Member(s.id); !ok {
		return fmt.Errorf("shard: id %q not in map epoch %d", s.id, m.Epoch)
	}
	s.mu.Lock()
	if m.Epoch <= s.m.Epoch {
		old := s.m.Epoch
		s.mu.Unlock()
		return fmt.Errorf("shard: map epoch %d not newer than %d", m.Epoch, old)
	}
	s.m = m
	s.mu.Unlock()
	s.epoch.Set(int64(m.Epoch))
	return s.installMap(m, ttl)
}

// installMap rotates the zone's shard-map record to m: stale map
// records (older encodings under the same name) are removed, then the
// new one is added — both through the server's update path, so the
// rotation is journaled and cached replies are invalidated. It runs on
// a background context: map maintenance is bookkeeping, billed to no
// caller's meter.
func (s *Serving) installMap(m Map, ttl uint32) error {
	rr, err := Record(m, s.zone, ttl)
	if err != nil {
		return err
	}
	ctx := context.Background()
	name := MapName(s.zone)
	z := s.srv.Zone(s.zone)
	if existing, _ := z.Lookup(name, bind.TypeHNSMeta); len(existing) > 0 {
		fresh := string(existing[0].Data) == string(rr.Data)
		if !fresh {
			// Remove with empty Data clears every record of the
			// name/type — one old encoding or several.
			if rcode, _, rerr := s.srv.Update(ctx, s.zone, bind.UpdateRemove,
				bind.RR{Name: name, Type: bind.TypeHNSMeta}); rerr != nil {
				return fmt.Errorf("shard: rotating map record: %s: %w", rcode, rerr)
			}
		}
	}
	rcode, _, uerr := s.srv.Update(ctx, s.zone, bind.UpdateAdd, rr)
	if uerr != nil {
		return fmt.Errorf("shard: installing map record: %s: %w", rcode, uerr)
	}
	return nil
}
