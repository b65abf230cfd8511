package bind

// Chain following: one exchange answers a question and the questions its
// answer leads to — additional-section processing, made explicit. The
// caller says how each next name is built from the previous answer
// (FollowStep); the server walks the links it holds and returns every
// answer set it found. BIND learns nothing about what the names mean.

import (
	"bytes"
	"context"
	"fmt"
	"slices"

	"hns/internal/hrpc"
	"hns/internal/marshal"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// FollowStep derives the next name of a chain from the previous answer:
// take the value of the first record whose data reads "Key=value" and look
// up Prefix+value+Suffix.
type FollowStep struct {
	Key, Prefix, Suffix string
}

// MaxFollowSteps bounds a chain; longer follow lists are refused.
const MaxFollowSteps = 4

// next builds the step's name from an answer set. It reports false when no
// record carries the key or the built name is not a legal domain name.
func (st FollowStep) next(rrs []RR) (string, bool) {
	key := []byte(st.Key + "=")
	for _, rr := range rrs {
		v, ok := bytes.CutPrefix(rr.Data, key)
		if !ok {
			continue
		}
		name, err := CanonicalName(st.Prefix + string(v) + st.Suffix)
		return name, err == nil
	}
	return "", false
}

// ChainLookuper is the optional face of a Lookuper that can follow a chain
// in one exchange. tails holds the answer sets of the links the server
// followed, in chain order; a short or empty tails says only that the
// server stopped there, never that a name does not exist.
type ChainLookuper interface {
	LookupChain(ctx context.Context, name string, t RRType, follow []FollowStep) (head []RR, tails [][]RR, err error)
}

var followStepType = marshal.TStruct(marshal.TString, marshal.TString, marshal.TString)

// procQueryChain is BINDQuery plus a follow list. The reply is the head's
// rcode and every answer set found, as one sets payload in chain order.
var procQueryChain = hrpc.Procedure{
	Name: "BINDQueryChain", ID: 8,
	Args:  marshal.TStruct(marshal.TString, marshal.TUint32, marshal.TList(followStepType)),
	Ret:   marshal.TStruct(marshal.TUint32, marshal.TBytes),
	Style: marshal.StyleNone,
}

// replyBudget is how many bytes of records one reply may carry: a frame,
// less room for the envelopes around them. A chained answer stops short
// of it, and a zone's history keeps no more than it.
const replyBudget = transport.MaxFrame - 4096

func followToList(follow []FollowStep) marshal.Value {
	steps := make([]marshal.Value, len(follow))
	for i, st := range follow {
		steps[i] = marshal.StructV(marshal.Str(st.Key), marshal.Str(st.Prefix), marshal.Str(st.Suffix))
	}
	return marshal.ListV(steps...)
}

func decodeFollow(v marshal.Value) ([]FollowStep, error) {
	if v.Len() > MaxFollowSteps {
		return nil, fmt.Errorf("bind: %d follow steps, at most %d", v.Len(), MaxFollowSteps)
	}
	follow := make([]FollowStep, 0, v.Len())
	for _, it := range v.Items {
		var st FollowStep
		var err error
		if st.Key, err = it.Items[0].AsString(); err != nil {
			return nil, err
		}
		if st.Prefix, err = it.Items[1].AsString(); err != nil {
			return nil, err
		}
		if st.Suffix, err = it.Items[2].AsString(); err != nil {
			return nil, err
		}
		if st.Key == "" {
			return nil, fmt.Errorf("bind: follow step with empty key")
		}
		follow = append(follow, st)
	}
	return follow, nil
}

// queryChain is the BINDQueryChain handler. The head is answered exactly
// as BINDQuery answers it. Each further link is one more Server.Query; the
// walk stops, silently, at the first link whose name cannot be built, was
// already visited, is not NOERROR in a zone this server holds, is answered
// through an alias (the reply delimits sets by owner name), or would push
// the reply past a frame.
func (s *Server) queryChain(ctx context.Context, args marshal.Value) (marshal.Value, error) {
	name, err := args.Items[0].AsString()
	if err != nil {
		return marshal.Value{}, err
	}
	qt, err := queryType(args.Items[1])
	if err != nil {
		return marshal.Value{}, err
	}
	follow, err := decodeFollow(args.Items[2])
	if err != nil {
		return marshal.Value{}, err
	}
	rcode, sets := s.answer(ctx, name, qt)
	prev, _ := decodeSets(sets)
	cname, _ := CanonicalName(name)
	if ownedRun(prev, cname) == 0 {
		follow = nil // the head failed, or was answered through an alias
	}
	// Every set is owned by its own name, so appending set by set is
	// appending the flat list: no run spans two sets. The zone's runs are
	// capped, so the first append copies them.
	visited := []string{cname}
	for _, st := range follow {
		next, ok := st.next(prev)
		if !ok || slices.Contains(visited, next) {
			break
		}
		rc, more := s.answer(ctx, next, qt)
		rrs, _ := decodeSets(more)
		if rc != RCodeOK || ownedRun(rrs, next) == 0 || len(sets)+len(more) > replyBudget {
			break
		}
		sets = append(sets, more...)
		visited = append(visited, next)
		prev = rrs
	}
	return marshal.StructV(marshal.U32(uint32(rcode)), marshal.BytesV(sets)), nil
}

// splitChain cuts a flat chained answer back into its sets by replaying
// the follow steps: a tail is the run of records owned by the name its step
// builds from the set before it. Records that fit no step are dropped, so
// only names the caller asked for, directly or by a step, come back.
func splitChain(cname string, rrs []RR, follow []FollowStep) (head []RR, tails [][]RR) {
	n := ownedRun(rrs, cname)
	if n == 0 {
		// An aliased head is owned by its target, and is never followed.
		return rrs, nil
	}
	head, rrs = rrs[:n], rrs[n:]
	prev := head
	for _, st := range follow {
		next, ok := st.next(prev)
		if !ok {
			break
		}
		n := ownedRun(rrs, next)
		if n == 0 {
			break
		}
		prev, rrs = rrs[:n], rrs[n:]
		tails = append(tails, prev)
	}
	return head, tails
}

// ownedRun counts the leading records owned by name.
func ownedRun(rrs []RR, name string) int {
	n := 0
	for n < len(rrs) && rrs[n].Name == name {
		n++
	}
	return n
}

// LookupChain implements ChainLookuper: one BINDQueryChain exchange,
// counted as one lookup.
func (c *HRPCClient) LookupChain(ctx context.Context, name string, t RRType, follow []FollowStep) (head []RR, tails [][]RR, err error) {
	defer func() { c.obs.count(err) }()
	cname, err := CanonicalName(name)
	if err != nil {
		return nil, nil, err
	}
	simtime.Charge(ctx, simtime.GenMarshalRequest)
	ret, err := c.c.Call(ctx, c.b, procQueryChain, marshal.StructV(
		marshal.Str(cname), marshal.U32(uint32(t)), followToList(follow),
	))
	if err != nil {
		return nil, nil, err
	}
	rcode, rrs, err := replySets(ret.Items[0], ret.Items[1])
	if err != nil {
		return nil, nil, err
	}
	marshal.ChargeRecords(ctx, marshal.StyleGenerated, len(rrs))
	if rcode != RCodeOK {
		return nil, nil, &NotFoundError{Name: name, Type: t, RCode: rcode}
	}
	head, tails = splitChain(cname, rrs, follow)
	return head, tails, nil
}
