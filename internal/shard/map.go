// Package shard is what is left of the sharded meta-store: the
// rendezvous (highest-random-weight) hash that assigned each meta name to
// one of N bindd shards.
//
// The shards themselves are gone — the meta-BIND survives by ordered
// replicas (bindd -secondary, hnsd -meta-replica), not by partitioning;
// see DESIGN.md "One replication story". Member, Map and Map.Owner stay
// only because the frozen bench/hnsload/inproc.go times shard.owner_ns
// against exactly them. No daemon calls them; the next [benchmark] PR
// retires that series and this package with it.
package shard

// Member is one shard: a stable identifier (the hashing key) and an
// address.
type Member struct {
	ID   string
	Addr string
}

// Map is one epoch of a shard assignment: who the members are and how
// names hash onto them. The zero Map (no members) owns nothing.
type Map struct {
	// Epoch orders maps.
	Epoch uint32
	// Seed perturbs the rendezvous hash.
	Seed uint64
	// Members is the shard set.
	Members []Member
}
