package regbaseline

import (
	"context"
	"errors"
	"fmt"

	"hns/internal/bind"
)

// BroadcastLocator is the design alternative the paper rejects for
// locating the right name service: "The alternative of locating the
// appropriate local name server, either through some multicast technique
// or some form of search path, is either too inefficient in our
// environment, has the flavor of relative name spaces..., or requires
// excessive development cost".
//
// It resolves a name by asking *every* federated name server in turn
// until one answers authoritatively — no contexts, no meta-information.
// Cost therefore grows with the number of subsystems (and the order of
// interrogation), where the HNS's context-directed routing touches exactly
// one.
type BroadcastLocator struct {
	servers []bind.Lookuper
}

// NewBroadcastLocator creates a locator over the given name-server
// clients, interrogated in order.
func NewBroadcastLocator(servers ...bind.Lookuper) *BroadcastLocator {
	return &BroadcastLocator{servers: servers}
}

// AddServer appends another subsystem's server (federation growth).
func (b *BroadcastLocator) AddServer(s bind.Lookuper) {
	b.servers = append(b.servers, s)
}

// Servers reports the federation size.
func (b *BroadcastLocator) Servers() int { return len(b.servers) }

// Resolve queries each server in turn for an address record, returning the
// first authoritative answer. Servers that are not authoritative (or have
// no record) cost a full round trip each before the next is tried.
func (b *BroadcastLocator) Resolve(ctx context.Context, name string) (string, int, error) {
	queried := 0
	for _, s := range b.servers {
		queried++
		rrs, err := s.Lookup(ctx, name, bind.TypeA)
		if err != nil {
			var nf *bind.NotFoundError
			if errors.As(err, &nf) {
				continue // not here; try the next subsystem
			}
			return "", queried, err
		}
		if len(rrs) > 0 {
			return string(rrs[0].Data), queried, nil
		}
	}
	return "", queried, fmt.Errorf("regbaseline: %s not found in any of %d subsystems", name, len(b.servers))
}
