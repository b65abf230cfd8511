package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hns/internal/bind"
	"hns/internal/core"
	"hns/internal/daemon"
	"hns/internal/hrpc"
	"hns/internal/metrics"
)

// TestFindAndResolve starts a push meta bindd, an app bindd, nsmd and a
// subscribed hnsd in-process, registers a world with hnsctl, and runs the
// one-shot find and resolve against hnsd: each prints the binding after
// its FindNSM and the Watch that follows it, and resolve the address the
// NSM answers. stats then shows the memo the one-shot caller kept.
func TestFindAndResolve(t *testing.T) {
	start := func(d *daemon.Daemon, err error) *daemon.Daemon {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
	zoneFile := filepath.Join(t.TempDir(), "app.zone")
	if err := os.WriteFile(zoneFile, []byte("fiji.cs.washington.edu 600 A 127.0.0.1\njune.cs.washington.edu 600 A 127.0.0.1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	meta := start(daemon.Bindd(daemon.BinddConfig{Host: "tahoma", Zones: daemon.List{"hns"}, Update: true, Push: true, HRPC: "127.0.0.1:0"}))
	app := start(daemon.Bindd(daemon.BinddConfig{Host: "fiji", Zones: daemon.List{"cs.washington.edu"}, Update: true,
		Records: zoneFile, HRPC: "127.0.0.1:0", Std: "127.0.0.1:0"}))
	nsmd := start(daemon.Nsmd(daemon.NsmdConfig{Host: "june", Addr: "127.0.0.1:0", Type: "hostaddr-bind", NS: "bind-cs", BindStd: app.StdAddr()}))
	hnsd := start(daemon.Hnsd(daemon.HnsdConfig{Host: "hns", Addr: "127.0.0.1:0", Meta: meta.Addr(), MetaZone: "hns",
		Subscribe: true, LinkBind: daemon.List{"bind-cs=" + app.StdAddr()}}))
	msrv, err := metrics.Serve("127.0.0.1:0", metrics.Default())
	if err != nil {
		t.Fatal(err)
	}
	defer msrv.Close()

	hnsctl := func(args ...string) string {
		t.Helper()
		var out strings.Builder
		if err := run(args, &out); err != nil {
			t.Fatalf("hnsctl %s: %v", strings.Join(args, " "), err)
		}
		return out.String()
	}
	_, port, _ := net.SplitHostPort(nsmd.Addr())
	hnsctl("register-ns", "-meta", meta.Addr(), "bind-cs", "bind")
	hnsctl("register-context", "-meta", meta.Addr(), "hostaddr-bind", "bind-cs")
	hnsctl("register-nsm", "-meta", meta.Addr(), "-name", "hostaddr-bind-1", "-ns", "bind-cs", "-qclass", "hostaddress",
		"-nsm-host", "june.cs.washington.edu", "-hostctx", "hostaddr-bind", "-port", port, "-suite", "udp-net,xdr,sunrpc")
	if err := hnsd.HNS.MetaSubscription().Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	watches := metrics.Default().Counter("push_subscribe_total")
	before := watches.Value()

	want := "NSM binding: udp-net/sunrpc/xdr!" + nsmd.Addr()
	if got := hnsctl("find", "-hns", hnsd.Addr(), "hostaddr-bind", "fiji.cs.washington.edu", "hostaddress"); !strings.HasPrefix(got, want) {
		t.Errorf("find printed %q, want it to begin %q", got, want)
	}
	got := hnsctl("resolve", "-hns", hnsd.Addr(), "hostaddr-bind", "fiji.cs.washington.edu")
	if !strings.HasPrefix(got, want) || !strings.HasSuffix(got, "hostaddr-bind!fiji.cs.washington.edu -> 127.0.0.1\n") {
		t.Errorf("resolve printed %q, want the binding and then the address", got)
	}
	if got := watches.Value() - before; got != 2 {
		t.Errorf("find and resolve took %d watches at hnsd, want one each", got)
	}
	if got := hnsctl("stats", "-from", msrv.Addr(), "-filter", "hns_memo"); !strings.Contains(got, "caller memo:") ||
		!strings.Contains(got, "hit ratio") || !strings.Contains(got, "watchers") {
		t.Errorf("stats printed %q, want the caller memo's hit ratio and watchers", got)
	}
}

// TestRegistryCommands registers a name service, a context and an NSM with
// hnsctl, reads the app zone through lookup, and after each of
// unregister-context and unregister-nsm parses dump's output back with
// bind's zone-file parser: the records are the registrations still standing
// and the serial is the one the last change acked.
func TestRegistryCommands(t *testing.T) {
	start := func(d *daemon.Daemon, err error) *daemon.Daemon {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
	zoneFile := filepath.Join(t.TempDir(), "app.zone")
	if err := os.WriteFile(zoneFile, []byte("fiji.cs.washington.edu 600 A 127.0.0.1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	meta := start(daemon.Bindd(daemon.BinddConfig{Host: "tahoma", Zones: daemon.List{"hns"}, Update: true, HRPC: "127.0.0.1:0"}))
	app := start(daemon.Bindd(daemon.BinddConfig{Host: "fiji", Zones: daemon.List{"cs.washington.edu"},
		Records: zoneFile, HRPC: "127.0.0.1:0", Std: "127.0.0.1:0"}))
	// hnsctl runs a subcommand and returns what it printed and the zone
	// serial that a change it made printed.
	hnsctl := func(args ...string) (string, uint32) {
		t.Helper()
		var out strings.Builder
		if err := run(args, &out); err != nil {
			t.Fatalf("hnsctl %s: %v", strings.Join(args, " "), err)
		}
		var serial uint32
		if _, s, ok := strings.Cut(out.String(), "(zone serial "); ok {
			fmt.Sscanf(s, "%d)", &serial)
		}
		return out.String(), serial
	}

	ns, _ := core.NameServiceRecord("hns", "bind-cs", "bind")
	cx, _ := core.ContextRecord("hns", "hostaddr-bind", "bind-cs")
	nsm, err := core.NSMRecords("hns", core.NSMInfo{Name: "hostaddr-bind-1", NameService: "bind-cs", QueryClass: "hostaddress",
		Host: "june.cs.washington.edu", HostContext: "hostaddr-bind", Port: "6320", Suite: hrpc.SuiteSunRPCNet})
	if err != nil {
		t.Fatal(err)
	}
	hnsctl("register-ns", "-meta", meta.Addr(), "bind-cs", "bind")
	hnsctl("register-context", "-meta", meta.Addr(), "hostaddr-bind", "bind-cs")
	_, serial := hnsctl("register-nsm", "-meta", meta.Addr(), "-name", "hostaddr-bind-1", "-ns", "bind-cs", "-qclass", "hostaddress",
		"-nsm-host", "june.cs.washington.edu", "-hostctx", "hostaddr-bind", "-port", "6320", "-suite", "udp-net,xdr,sunrpc")
	if got, _ := hnsctl("lookup", "-server", app.StdAddr(), "fiji.cs.washington.edu", "A"); !strings.Contains(got, "127.0.0.1") {
		t.Errorf("lookup printed %q, want fiji's address", got)
	}

	dumped := func(stage string, serial uint32, want ...bind.RR) {
		t.Helper()
		out, _ := hnsctl("dump", "-meta", meta.Addr())
		var got uint32
		if _, err := fmt.Sscanf(out, "; zone hns serial %d", &got); err != nil || got != serial {
			t.Errorf("%s: dump's serial line reads %d (%v), want %d:\n%s", stage, got, err, serial, out)
		}
		rrs, err := bind.ParseZoneFile(strings.NewReader(out))
		if err != nil {
			t.Fatalf("%s: dump does not parse: %v", stage, err)
		}
		lines := func(rrs []bind.RR) []string {
			l := strings.Split(strings.TrimSpace(bind.FormatZoneFile(rrs)), "\n")
			slices.Sort(l)
			return l
		}
		if g, w := lines(rrs), lines(want); !slices.Equal(g, w) {
			t.Errorf("%s: dump holds\n%s\nwant\n%s", stage, strings.Join(g, "\n"), strings.Join(w, "\n"))
		}
	}
	dumped("registered", serial, append([]bind.RR{ns, cx}, nsm...)...)
	_, serial = hnsctl("unregister-context", "-meta", meta.Addr(), "hostaddr-bind")
	dumped("context unregistered", serial, append([]bind.RR{ns}, nsm...)...)
	_, serial = hnsctl("unregister-nsm", "-meta", meta.Addr(), "-ns", "bind-cs", "-qclass", "hostaddress", "hostaddr-bind-1")
	dumped("NSM unregistered", serial, ns)
}
