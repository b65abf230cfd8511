package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"hns/internal/bind"
	"hns/internal/push"
)

// cmdWatch subscribes to a bindd's push plane and prints every NOTIFY, one
// per transaction, as it arrives — the operator's live view of the
// invalidation stream. A positional argument equal to the zone (or none)
// watches the whole zone; any other argument narrows delivery to that
// owner name (repeatable). Zone-level events are always delivered.
func cmdWatch(e *env, args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	meta := fs.String("meta", "127.0.0.1:5301", "bindd HRPC address")
	zone := fs.String("zone", "hns", "zone to watch")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var names []string
	for _, arg := range fs.Args() {
		if arg == *zone {
			// Bare zone: no name filter — everything in the zone.
			names = nil
			break
		}
		names = append(names, arg)
	}

	mc := e.metaClient(*meta)
	var seen atomic.Int64
	stamp := func() string { return time.Now().Format("15:04:05.000") }
	sub := mc.Subscribe(bind.SubscribeConfig{
		Zone:  *zone,
		Names: names,
		OnNotify: func(n push.Notification) {
			seen.Add(1)
			if n.Names == nil {
				fmt.Fprintf(e.out, "%s  serial %-8d zone-level event (%s)\n", stamp(), n.Serial, n.Zone)
				return
			}
			fmt.Fprintf(e.out, "%s  serial %-8d %s\n", stamp(), n.Serial, strings.Join(n.Names, " "))
		},
		OnReset: func() {
			fmt.Fprintf(e.out, "%s  RESET: continuity lost past the server's diff window\n", stamp())
		},
	})
	defer sub.Close()

	// The subscriber degrades silently by design (its consumers fall back
	// to polling); a human watching wants the verdict up front instead.
	deadline := time.After(5 * time.Second)
	for changed := sub.Changed(); !sub.Active(); changed = sub.Changed() {
		if sub.Degraded() {
			return fmt.Errorf("%s has no push plane (not started with -push, or its subscriber table is full); start bindd with -push", *meta)
		}
		select {
		case <-changed:
		case <-deadline:
			return fmt.Errorf("no subscription to %s after 5s (server down?)", *meta)
		}
	}
	what := "whole zone"
	if len(names) > 0 {
		what = fmt.Sprintf("%d name(s)", len(names))
	}
	fmt.Fprintf(e.out, "watching zone %q on %s (%s) from serial %d — ctrl-C to stop\n",
		*zone, *meta, what, sub.LastSerial())

	done := make(chan os.Signal, 1)
	signal.Notify(done, os.Interrupt, syscall.SIGTERM)
	<-done
	fmt.Fprintf(e.out, "\n%d notification(s); last serial %d\n", seen.Load(), sub.LastSerial())
	return nil
}
