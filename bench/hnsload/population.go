package main

import (
	"bytes"
	"fmt"
	"hash"
	"math/rand"
	"strconv"

	"hns/internal/bind"
	"hns/internal/core"
	"hns/internal/hrpc"
	"hns/internal/qclass"
)

// The population is identical in every workload: only the op sequence
// differs. All of it is derived from the seed and loaded through
// `bindd -records`, so the daemons receive nothing but generated inputs.
const (
	metaZone = "hns"
	appZone  = "cs.washington.edu"

	hotContexts = 512   // h0..h511, all mapped onto nsA at start
	tenantCount = 36000 // each with its own name service, context and NSM records

	nsA = "bind-cs"   // the two name services a hot context flips between;
	nsB = "bind-cs-b" // both are served by the one HostAddress NSM

	baseContext = "hostaddr-bind"
	nsmHost     = "june." + appZone
	target      = "fiji." + appZone
	targetAddr  = "127.0.0.1"
)

// population is everything the daemons are loaded with.
type population struct {
	tenants []string // tenant ids; context "t<id>", name service "ns-<id>", NSM "nsm-<id>"
	meta    []bind.RR
	app     []bind.RR
}

func hotContext(i int) string { return "h" + strconv.Itoa(i) }

func tenantContext(id string) string { return "t" + id }

// newPopulation builds the world with the given number of tenants.
// nsmPort is the port the one nsmd will listen on; every NSM record in
// the meta zone points at it.
func newPopulation(seed int64, nsmPort string, tenants int) (*population, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &population{}

	nsm := func(name, ns string) error {
		rrs, err := core.NSMRecords(metaZone, core.NSMInfo{
			Name: name, NameService: ns, QueryClass: qclass.HostAddress,
			Host: nsmHost, HostContext: baseContext, Port: nsmPort,
			Suite: hrpc.SuiteSunRPCNet,
		})
		p.meta = append(p.meta, rrs...)
		return err
	}
	add := func(rr bind.RR, err error) error {
		p.meta = append(p.meta, rr)
		return err
	}

	// Base world.
	for _, ns := range []string{nsA, nsB} {
		if err := add(core.NameServiceRecord(metaZone, ns, "bind")); err != nil {
			return nil, err
		}
		if err := nsm("hostaddr-"+ns, ns); err != nil {
			return nil, err
		}
	}
	if err := add(core.ContextRecord(metaZone, baseContext, nsA)); err != nil {
		return nil, err
	}
	for i := 0; i < hotContexts; i++ {
		if err := add(core.ContextRecord(metaZone, hotContext(i), nsA)); err != nil {
			return nil, err
		}
	}

	// Tenants: 7 meta records each.
	p.tenants = make([]string, tenants)
	for i := range p.tenants {
		id := fmt.Sprintf("%05d-%04x", i, rng.Intn(1<<16))
		p.tenants[i] = id
		ns := "ns-" + id
		if err := add(core.NameServiceRecord(metaZone, ns, "bind")); err != nil {
			return nil, err
		}
		if err := add(core.ContextRecord(metaZone, tenantContext(id), ns)); err != nil {
			return nil, err
		}
		if err := nsm("nsm-"+id, ns); err != nil {
			return nil, err
		}
	}

	p.app = []bind.RR{
		bind.A(target, targetAddr, 600),
		bind.A(nsmHost, "127.0.0.1", 600),
	}
	return p, nil
}

// zoneFile renders records in the `bindd -records` format (sorted, so
// the same records always give the same bytes).
func zoneFile(rrs []bind.RR) ([]byte, error) {
	var b bytes.Buffer
	if err := bind.WriteZone(&b, rrs); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// An op is one step of a window's sequence.
type op struct {
	kind opKind
	ctx  int // hot-context index (resolveCtx, flip) or tenant index (resolveTenant)
}

type opKind uint8

const (
	opResolveCtx opKind = iota
	opResolveTenant
	opFlip
)

// seqKind names what a window does.
type seqKind uint8

const (
	seqHot    seqKind = iota // resolve the hot set
	seqTenant                // resolve never-touched tenants
	seqFlip                  // flip hot contexts
	seqMix                   // seqHot with every flipEvery-th op a flip of that context
)

// flipEvery is update_mix's write share: every 16th op is a flip.
const flipEvery = 16

// opSequence returns the n ops of one window. The sequence depends only
// on (seed, kind, window, n, tenantBase). window numbers every window of
// the run; tenantBase is the first tenant a seqTenant window may touch.
func opSequence(seed int64, kind seqKind, window, n, tenantBase int) []op {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(window)*7919 + int64(kind)))
	// One permutation per window, walked cyclically: every context is
	// touched equally often and any run of consecutive ops is distinct.
	perm := rng.Perm(hotContexts)
	ops := make([]op, n)
	for i := range ops {
		c := perm[i%hotContexts]
		switch kind {
		case seqHot:
			ops[i] = op{opResolveCtx, c}
		case seqTenant:
			ops[i] = op{opResolveTenant, tenantBase + i}
		case seqFlip:
			ops[i] = op{opFlip, c}
		case seqMix:
			// The flip slot moves one position per walk of the
			// permutation, so a context flipped in one walk is resolved
			// in the next and pays its one meta fetch there. A fixed slot
			// would flip the same 32 contexts for ever and never read them.
			if (i+i/hotContexts)%flipEvery == flipEvery-1 {
				ops[i] = op{opFlip, c}
			} else {
				ops[i] = op{opResolveCtx, c}
			}
		}
	}
	return ops
}

// opsHash fingerprints a sequence (printed, and compared by the tests:
// same seed, same hash).
func opsHash(h hash.Hash, ops []op) {
	var buf [5]byte
	for _, o := range ops {
		buf[0] = byte(o.kind)
		buf[1], buf[2], buf[3], buf[4] = byte(o.ctx), byte(o.ctx>>8), byte(o.ctx>>16), byte(o.ctx>>24)
		h.Write(buf[:])
	}
}
