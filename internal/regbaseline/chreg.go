package regbaseline

import (
	"context"
	"fmt"

	"hns/internal/clearinghouse"
	"hns/internal/hrpc"
	"hns/internal/marshal"
	"hns/internal/qclass"
	"hns/internal/simtime"
)

// CHRegistry is the reregistered-into-one-name-service baseline: every
// service's binding is copied into the Clearinghouse, and binding is a
// single authenticated Clearinghouse retrieval (166 ms in the paper). It
// is faster than the HNS's cold path but carries the reregistration
// drawbacks: stale copies, an ever-running sweep, and — at scale — a
// global service that must absorb every subsystem's update rate.
type CHRegistry struct {
	ch     *clearinghouse.Client
	domain string
	org    string
}

// NewCHRegistry creates a registry storing bindings in the given
// Clearinghouse domain:organization.
func NewCHRegistry(ch *clearinghouse.Client, domain, org string) *CHRegistry {
	return &CHRegistry{ch: ch, domain: domain, org: org}
}

func (r *CHRegistry) objectName(service string) (clearinghouse.Name, error) {
	return clearinghouse.ParseName(service + ":" + r.domain + ":" + r.org)
}

// Register copies one service's binding into the Clearinghouse (what the
// reregistration sweep does per entry).
func (r *CHRegistry) Register(ctx context.Context, service string, b hrpc.Binding) error {
	n, err := r.objectName(service)
	if err != nil {
		return err
	}
	return r.ch.AddItem(ctx, n, clearinghouse.PropBinding, []byte(qclass.FormatBinding(b)))
}

// Import binds by retrieving the reregistered binding: one authenticated,
// disk-resident Clearinghouse access plus demarshalling the stored copy.
func (r *CHRegistry) Import(ctx context.Context, service string) (hrpc.Binding, error) {
	n, err := r.objectName(service)
	if err != nil {
		return hrpc.Binding{}, err
	}
	raw, err := r.ch.Retrieve(ctx, n, clearinghouse.PropBinding)
	if err != nil {
		return hrpc.Binding{}, fmt.Errorf("chreg: %s not reregistered: %w", service, err)
	}
	// The stored copy arrives in marshalled form; demarshal and assemble.
	marshal.ChargeRecords(ctx, marshal.StyleGenerated, 1)
	simtime.Charge(ctx, simtime.FindNSMAssembly)
	return qclass.ParseBinding(string(raw))
}
