package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"hns/internal/bind"
	"hns/internal/hrpc"
	"hns/internal/names"
)

// Registration writes meta-naming records into the modified BIND through
// dynamic updates. This is the entirety of what "adding a new system type"
// costs at the HNS: register the name service, its contexts, and the NSMs
// built for it. Existing applications on the new system keep using their
// native name service; their updates are visible globally with no further
// work — the direct-access property.

// DefaultMetaTTL is the TTL (seconds) stamped on meta records unless a
// registration overrides it.
const DefaultMetaTTL uint32 = 600

// NSMInfo describes one NSM for registration.
type NSMInfo struct {
	// Name uniquely identifies the NSM, e.g. "binding-bind-1".
	Name string
	// NameService is the underlying service the NSM fronts, e.g. "bind-cs".
	NameService string
	// QueryClass is the query class it answers, e.g. qclass.HRPCBinding.
	QueryClass string
	// Host is the individual name of the host the NSM runs on, e.g.
	// "fiji.cs.washington.edu".
	Host string
	// HostContext is the HNS context that resolves Host.
	HostContext string
	// Port is the address suffix of the NSM's endpoint on that host.
	Port string
	// Suite names the protocol components the NSM is served over.
	Suite hrpc.Suite
	// TTL overrides DefaultMetaTTL when positive.
	TTL uint32
}

func (i NSMInfo) ttl() uint32 {
	if i.TTL > 0 {
		return i.TTL
	}
	return DefaultMetaTTL
}

// validate checks the registration for completeness.
func (i NSMInfo) validate() error {
	switch {
	case i.Name == "":
		return fmt.Errorf("hns: NSM registration lacks a name")
	case i.NameService == "":
		return fmt.Errorf("hns: NSM %q lacks a name service", i.Name)
	case i.QueryClass == "":
		return fmt.Errorf("hns: NSM %q lacks a query class", i.Name)
	case i.Host == "":
		return fmt.Errorf("hns: NSM %q lacks a host", i.Name)
	case i.HostContext == "":
		return fmt.Errorf("hns: NSM %q lacks a host context", i.Name)
	case i.Port == "":
		return fmt.Errorf("hns: NSM %q lacks a port", i.Name)
	case i.Suite.Transport == "" || i.Suite.DataRep == "" || i.Suite.Control == "":
		return fmt.Errorf("hns: NSM %q has an incomplete protocol suite", i.Name)
	}
	return nil
}

// Meta-record constructors, shared by the library registration calls and
// administrative tooling (hnsctl) that writes records directly.

// ContextRecord builds the meta record mapping context onto nameService.
func ContextRecord(zone, context, nameService string) (bind.RR, error) {
	c, err := names.CanonicalContext(context)
	if err != nil {
		return bind.RR{}, err
	}
	if nameService == "" {
		return bind.RR{}, fmt.Errorf("hns: context %q registration lacks a name service", c)
	}
	return bind.HNSMeta(c+".ctx."+zone, "ns="+strings.ToLower(nameService), DefaultMetaTTL), nil
}

// NameServiceRecord builds the meta record declaring a name service.
func NameServiceRecord(zone, name, nsType string) (bind.RR, error) {
	if name == "" || nsType == "" {
		return bind.RR{}, fmt.Errorf("hns: name service registration needs name and type")
	}
	return bind.HNSMeta(strings.ToLower(name)+".ns."+zone, "type="+nsType, DefaultMetaTTL), nil
}

// NSMRecords builds the meta records registering an NSM: the
// (name service, query class) → NSM mapping plus the NSM's own record set.
func NSMRecords(zone string, info NSMInfo) ([]bind.RR, error) {
	if err := info.validate(); err != nil {
		return nil, err
	}
	qc := strings.ToLower(info.QueryClass)
	ns := strings.ToLower(info.NameService)
	nsm := strings.ToLower(info.Name)
	ttl := info.ttl()
	rec := nsm + ".nsm." + zone
	return []bind.RR{
		bind.HNSMeta(qc+"."+ns+".qc."+zone, "nsm="+nsm, ttl),
		bind.HNSMeta(rec, "host="+info.Host, ttl),
		bind.HNSMeta(rec, "hostctx="+strings.ToLower(info.HostContext), ttl),
		bind.HNSMeta(rec, "port="+info.Port, ttl),
		bind.HNSMeta(rec, "suite="+info.Suite.Transport+","+info.Suite.DataRep+","+info.Suite.Control, ttl),
	}, nil
}

// apply writes one transaction of meta records, whole or not at all, then
// purges our own cache; remote caches converge by TTL, as the paper
// accepts ("data changes slowly over time"), or by NOTIFY.
func (h *HNS) apply(ctx context.Context, ops []bind.Op) error {
	_, err := h.meta.Apply(ctx, h.metaZone, ops)
	if err == nil {
		h.resolver.Purge()
	}
	return err
}

// RegisterNameService records that a name service exists, with a
// free-form type tag ("bind", "clearinghouse", ...).
func (h *HNS) RegisterNameService(ctx context.Context, name, nsType string) error {
	rr, err := NameServiceRecord(h.metaZone, name, nsType)
	if err != nil {
		return err
	}
	return h.apply(ctx, bind.Adds(rr))
}

// RegisterContext maps a context onto a name service.
func (h *HNS) RegisterContext(ctx context.Context, context, nameService string) error {
	rr, err := ContextRecord(h.metaZone, context, nameService)
	if err != nil {
		return err
	}
	return h.apply(ctx, bind.Adds(rr))
}

// UnregisterContext removes a context mapping.
func (h *HNS) UnregisterContext(ctx context.Context, context string) error {
	c, err := names.CanonicalContext(context)
	if err != nil {
		return err
	}
	return h.apply(ctx, bind.Removes(bind.TypeHNSMeta, h.ctxName(c)))
}

// RegisterNSM records an NSM — the (name service, query class) → NSM
// mapping plus the NSM's own record — in one transaction, so no reader
// ever follows the mapping to a half-written record. "Adding a new system
// type simply requires building NSMs for those queries to be supported
// and registering their existence with the HNS."
func (h *HNS) RegisterNSM(ctx context.Context, info NSMInfo) error {
	rrs, err := NSMRecords(h.metaZone, info)
	if err != nil {
		return err
	}
	return h.apply(ctx, bind.Adds(rrs...))
}

// UnregisterNSM removes an NSM and its query-class mapping in one
// transaction: when either is missing, neither goes.
func (h *HNS) UnregisterNSM(ctx context.Context, nsmName, nameService, queryClass string) error {
	return h.apply(ctx, bind.Removes(bind.TypeHNSMeta,
		h.qcName(strings.ToLower(queryClass), strings.ToLower(nameService)),
		h.nsmName(strings.ToLower(nsmName))))
}

// Inventory is a report of everything registered in the meta zone, for
// administrative tooling.
type Inventory struct {
	NameServices []string
	Contexts     map[string]string // context -> name service
	NSMs         map[string]string // "queryclass@nameservice" -> NSM name
}

// ListRegistrations reads the whole meta zone (via zone transfer) and
// decodes it.
func (h *HNS) ListRegistrations(ctx context.Context) (Inventory, error) {
	_, rrs, err := h.meta.Transfer(ctx, h.metaZone)
	if err != nil {
		return Inventory{}, err
	}
	inv := Inventory{
		Contexts: make(map[string]string),
		NSMs:     make(map[string]string),
	}
	ctxSuffix := ".ctx." + h.metaZone
	nsSuffix := ".ns." + h.metaZone
	qcSuffix := ".qc." + h.metaZone
	for _, rr := range rrs {
		if rr.Type != bind.TypeHNSMeta {
			continue
		}
		switch {
		case strings.HasSuffix(rr.Name, ctxSuffix):
			if v, ok := findValue([]bind.RR{rr}, "ns"); ok {
				inv.Contexts[strings.TrimSuffix(rr.Name, ctxSuffix)] = v
			}
		case strings.HasSuffix(rr.Name, nsSuffix):
			inv.NameServices = append(inv.NameServices, strings.TrimSuffix(rr.Name, nsSuffix))
		case strings.HasSuffix(rr.Name, qcSuffix):
			if v, ok := findValue([]bind.RR{rr}, "nsm"); ok {
				key := strings.TrimSuffix(rr.Name, qcSuffix)
				// key is "<queryclass>.<nameservice>"; split at the first
				// label (query classes are single labels).
				if i := strings.IndexByte(key, '.'); i > 0 {
					inv.NSMs[key[:i]+"@"+key[i+1:]] = v
				}
			}
		}
	}
	sort.Strings(inv.NameServices)
	return inv, nil
}
