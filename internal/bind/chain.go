package bind

// Chain following: one exchange answers a question and the questions its
// answer leads to — additional-section processing, made explicit. The
// caller says how each next name is built from the previous answer
// (FollowStep); the server walks the links it holds and returns every
// answer set it found. BIND learns nothing about what the names mean.

import (
	"context"
	"fmt"
	"slices"

	"hns/internal/hrpc"
	"hns/internal/marshal"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// KeyValue is the one reader of the "key=value" record data a chain step
// and Answer.Value read: when data is key, '=' and a value, it returns the
// value, a subslice of data. key is not empty.
func KeyValue[D string | []byte](data D, key string) (D, bool) {
	if len(data) > len(key) && data[len(key)] == '=' && string(data[:len(key)]) == key {
		return data[len(key)+1:], true
	}
	return data[:0], false
}

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
	for _, rr := range rrs {
		if v, ok := KeyValue(rr.Data, st.Key); ok {
			name, err := CanonicalName(st.Prefix + string(v) + st.Suffix)
			return name, err == nil
		}
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
// rcode and one answer set per name answered, in chain order, each naming
// no owner its asker holds (appendElided): the asker sent the head's name
// and builds each next one itself.
var procQueryChain = hrpc.Procedure{
	Name: "BINDQueryChain", ID: 8,
	Args:  marshal.TStruct(marshal.TString, marshal.TUint32, marshal.TList(followStepType)),
	Ret:   marshal.TStruct(marshal.TUint32, marshal.TList(marshal.TBytes)),
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
// through an alias (a tail carries no owner), or would push the reply past
// a frame.
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
	cname, _ := CanonicalName(name)
	s.rearm(ctx, cname)
	rcode, sets := s.answer(ctx, name, qt)
	prev, _ := appendDecoded(nil, sets, cname)
	if rcode != RCodeOK || prev[0].Name != cname {
		follow = nil // the head failed, or was answered through an alias
	}
	// Each stored run is copied once into one buffer, cut into sets at the end.
	reply := appendElided(make([]byte, 0, (1+len(follow))*len(sets)), sets, cname)
	ends := [2 + MaxFollowSteps]int{0, len(reply)} // set i is reply[ends[i]:ends[i+1]]
	visited := append(make([]string, 0, 1+MaxFollowSteps), cname)
	for _, st := range follow {
		next, ok := st.next(prev)
		if !ok || slices.Contains(visited, next) {
			break
		}
		s.rearm(ctx, next)
		rc, more := s.answer(ctx, next, qt)
		rrs, _ := appendDecoded(nil, more, next)
		if rc != RCodeOK || rrs[0].Name != next || len(reply)+len(more) > replyBudget {
			break
		}
		reply = appendElided(reply, more, next)
		ends[len(visited)+1] = len(reply)
		visited = append(visited, next)
		prev = rrs
	}
	list := make([]marshal.Value, len(visited))
	for i := range list {
		list[i] = marshal.BytesV(reply[ends[i]:ends[i+1]])
	}
	return marshal.StructV(marshal.U32(uint32(rcode)), marshal.ListV(list...)), nil
}

// decodeChain decodes a BINDQueryChain reply's sets into one []RR and cuts
// it into the head, cname's answer, and a tail per further set, the answer
// to the name its step builds from the set before it. It refuses more sets
// than names asked and, by decodeAnswer, an owner spelled where the caller
// holds it or in a tail, so only names the caller asked for, directly or
// by a step, come back.
func decodeChain(sets []marshal.Value, cname string, follow []FollowStep) (rrs, head []RR, tails [][]RR, err error) {
	if len(sets) > 1+len(follow) {
		return nil, nil, nil, fmt.Errorf("bind: %d answer sets for a chain of %d names", len(sets), 1+len(follow))
	}
	var at [2 + MaxFollowSteps]int // set i is rrs[at[i]:at[i+1]]
	name, ok := cname, true
	for i, set := range sets {
		if i > 0 {
			name, ok = follow[i-1].next(rrs[at[i-1]:])
		}
		if !ok {
			return nil, nil, nil, fmt.Errorf("bind: answer set %d follows from no name", i)
		}
		if rrs, err = decodeAnswer(rrs, set.Bytes, name, i == 0); err != nil {
			return nil, nil, nil, err
		}
		at[i+1] = len(rrs)
	}
	for i := 1; i < len(sets); i++ {
		tails = append(tails, rrs[at[i]:at[i+1]])
	}
	return rrs, rrs[:at[1]], tails, nil
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
	rrs, head, tails, err := decodeChain(ret.Items[1].Items, cname, follow)
	if err != nil {
		return nil, nil, err
	}
	marshal.ChargeRecords(ctx, marshal.StyleGenerated, len(rrs))
	if rcode := RCode(ret.Items[0].Num); rcode != RCodeOK {
		return nil, nil, &NotFoundError{Name: name, Type: t, RCode: rcode}
	}
	return head, tails, nil
}
