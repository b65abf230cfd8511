package bind

import (
	"fmt"
	"time"
)

// BootConfig is what a bindd starts from.
type BootConfig struct {
	Host   string
	Zones  []string // the origins declared; a mirror declares exactly one
	Update bool     // a primary's zones take dynamic updates
	// Store is the journal; a nil Store.FS keeps everything in memory.
	Store DurableConfig
	// Primary, when set, makes this a read-only mirror of Zones[0].
	Primary *HRPCClient
	// Records, when set, reads the zone file seeding a fresh store.
	Records func() ([]byte, error)
	// Logf, when set, hears what start-up restored and loaded.
	Logf func(format string, args ...any)
}

// Boot builds a bindd's server in the one order that keeps it crash-safe:
// open the store, recovering its zones, before any zone exists; declare
// the zones (or the mirror's one); overlay each recovered zone onto its
// declared one, so a mirror resumes at its recovered serial and its first
// refresh is a serial probe; attach the journal, so every later mutation
// is appended before it is acknowledged; then seed Records into a fresh
// store only. A recovered zone no declaration names is refused, not
// dropped: served without it, the next checkpoint would prune its only
// copy. sec is nil for a primary. On an error nothing is left open.
func Boot(cfg BootConfig) (srv *Server, d *Durable, sec *Secondary, err error) {
	if cfg.Store.FS != nil {
		opened, err := OpenDurable(cfg.Store)
		if err != nil {
			return nil, nil, nil, err
		}
		defer func() {
			if d == nil {
				opened.Close()
			}
		}()
		d = opened
	}
	if cfg.Primary != nil {
		if len(cfg.Zones) != 1 {
			return nil, nil, nil, fmt.Errorf("bind: a mirror serves exactly one zone, not %d", len(cfg.Zones))
		}
		if sec, err = NewSecondary(cfg.Primary, cfg.Zones[0], cfg.Host); err != nil {
			return nil, nil, nil, err
		}
		srv = sec.Server()
	} else {
		srv = NewServer(cfg.Host)
		for _, origin := range cfg.Zones {
			z, err := NewZone(origin, cfg.Update)
			if err == nil {
				err = srv.AddZone(z)
			}
			if err != nil {
				return nil, nil, nil, err
			}
		}
	}
	if d != nil {
		for _, rz := range d.Zones() {
			z := srv.Zone(rz.Origin())
			if z == nil {
				return nil, nil, nil, fmt.Errorf("bind: recovered zone %s is not declared; declare it, or move the store aside to drop it", rz.Origin())
			}
			if err := z.Adopt(rz); err != nil {
				return nil, nil, nil, err
			}
			if cfg.Logf != nil {
				cfg.Logf("zone %s restored at serial %d (%d records)", z.Origin(), z.Serial(), z.Count())
			}
		}
		if sec != nil {
			sec.serial = sec.zone.Serial() // not yet shared, so unlocked
		}
		d.Attach(srv)
	}
	if cfg.Records == nil {
		return srv, d, sec, nil
	}
	if d != nil && !d.Empty() {
		if cfg.Logf != nil {
			cfg.Logf("the store holds recovered state; not seeding the zone file (move the store aside to reseed)")
		}
		return srv, d, sec, nil
	}
	t0 := time.Now()
	text, err := cfg.Records()
	if err != nil {
		return nil, nil, nil, err
	}
	n, err := srv.LoadZoneFile(text)
	if err != nil {
		return nil, nil, nil, err
	}
	if cfg.Logf != nil {
		owners, held := 0, 0
		for _, origin := range cfg.Zones {
			o, b := srv.Zone(origin).Held()
			owners, held = owners+o, held+b
		}
		cfg.Logf("loaded %d records (%d owners, %d bytes held) in %s", n, owners, held, time.Since(t0).Round(time.Millisecond))
	}
	return srv, d, sec, nil
}
