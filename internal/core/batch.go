package core

import (
	"context"
	"errors"
	"fmt"

	"hns/internal/hrpc"
	"hns/internal/marshal"
	"hns/internal/names"
	"hns/internal/qclass"
)

// Batched FindNSM: one frame resolves many names, with per-name status. A
// client that binds to many services at startup (or a gateway fronting a
// fleet of them) pays one frame exchange instead of one per name.

// MaxFindBatch bounds one FindNSMBatch call.
const MaxFindBatch = 64

// NameQuery is one (name, query class) resolution request in a batch.
type NameQuery struct {
	Name       names.Name
	QueryClass string
}

// FindResult is the per-name outcome: a binding, or that name's error.
type FindResult struct {
	Binding hrpc.Binding
	Err     error
}

// procFindNSMBatch is the batch resolution procedure.
//
//	args: {[{context, individual, queryClass}]}
//	ret:  {[{errText, binding}]}  — errText empty on success, and then
//	      the binding slot is meaningful; positionally matched to args.
var procFindNSMBatch = hrpc.Procedure{
	Name: "FindNSMBatch", ID: ProcFindNSMBatchID,
	Args: marshal.TStruct(marshal.TList(marshal.TStruct(
		marshal.TString, marshal.TString, marshal.TString,
	))),
	Ret: marshal.TStruct(marshal.TList(marshal.TStruct(
		marshal.TString,
		marshal.TStruct(
			marshal.TString, marshal.TString, marshal.TString, marshal.TString,
			marshal.TString, marshal.TUint32, marshal.TUint32,
		),
	))),
}

// FindNSMBatch resolves up to MaxFindBatch queries against the local
// library, one result per query. Each name resolves (and is charged)
// independently; a failure fills its own slot and the rest proceed.
func (h *HNS) FindNSMBatch(ctx context.Context, qs []NameQuery) ([]FindResult, error) {
	if len(qs) > MaxFindBatch {
		return nil, fmt.Errorf("hns: batch of %d exceeds limit %d", len(qs), MaxFindBatch)
	}
	out := make([]FindResult, len(qs))
	for i, q := range qs {
		b, err := h.FindNSM(ctx, q.Name, q.QueryClass)
		out[i] = FindResult{Binding: b, Err: err}
	}
	return out, nil
}

// registerFindBatch installs the batch procedure on an HNS server over
// any Finder (batch-capable finders batch through; others loop).
func registerFindBatch(s *hrpc.Server, f Finder) {
	s.Register(procFindNSMBatch, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		qs := args.Items[0]
		if qs.Len() > MaxFindBatch {
			return marshal.Value{}, fmt.Errorf("hns: batch of %d exceeds limit %d", qs.Len(), MaxFindBatch)
		}
		// Per-name status: each slot carries its own error text (the
		// reply-level error is reserved for malformed batches). Slots
		// whose names parse go to the Finder together — FindAll batches
		// them through a batch-capable backend in one upstream call,
		// which is what lets a gateway amortize its forwarding too.
		n := qs.Len()
		errTexts := make([]string, n)
		bindings := make([]hrpc.Binding, n)
		queries := make([]NameQuery, 0, n)
		slots := make([]int, 0, n)
		for i, it := range qs.Items {
			cx, err := it.Items[0].AsString()
			if err != nil {
				return marshal.Value{}, err
			}
			individual, err := it.Items[1].AsString()
			if err != nil {
				return marshal.Value{}, err
			}
			qc, err := it.Items[2].AsString()
			if err != nil {
				return marshal.Value{}, err
			}
			nm, err := names.New(cx, individual)
			if err != nil {
				errTexts[i] = err.Error()
				continue
			}
			queries = append(queries, NameQuery{Name: nm, QueryClass: qc})
			slots = append(slots, i)
		}
		res, err := FindAll(ctx, f, queries)
		if err != nil {
			return marshal.Value{}, err
		}
		for j, r := range res {
			if r.Err != nil {
				errTexts[slots[j]] = r.Err.Error()
			} else {
				bindings[slots[j]] = r.Binding
			}
		}
		results := make([]marshal.Value, 0, n)
		for i := 0; i < n; i++ {
			results = append(results, marshal.StructV(
				marshal.Str(errTexts[i]), qclass.BindingValue(bindings[i]),
			))
		}
		return marshal.StructV(marshal.ListV(results...)), nil
	})
}

// batchFinder is the optional batched face of a Finder.
type batchFinder interface {
	FindNSMBatch(ctx context.Context, qs []NameQuery) ([]FindResult, error)
}

// FindAll resolves qs against any Finder, batching when f supports it
// and falling back to sequential FindNSM calls otherwise.
func FindAll(ctx context.Context, f Finder, qs []NameQuery) ([]FindResult, error) {
	if bf, ok := f.(batchFinder); ok {
		return bf.FindNSMBatch(ctx, qs)
	}
	out := make([]FindResult, len(qs))
	for i, q := range qs {
		b, err := f.FindNSM(ctx, q.Name, q.QueryClass)
		out[i] = FindResult{Binding: b, Err: err}
	}
	return out, nil
}

// FindNSMBatch resolves a batch over the wire in one call.
func (r *RemoteHNS) FindNSMBatch(ctx context.Context, qs []NameQuery) ([]FindResult, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	if len(qs) > MaxFindBatch {
		return nil, fmt.Errorf("hns: batch of %d exceeds limit %d", len(qs), MaxFindBatch)
	}
	items := make([]marshal.Value, 0, len(qs))
	for _, q := range qs {
		items = append(items, marshal.StructV(
			marshal.Str(q.Name.Context), marshal.Str(q.Name.Individual), marshal.Str(q.QueryClass),
		))
	}
	ret, err := r.c.Call(ctx, r.b, procFindNSMBatch, marshal.StructV(marshal.ListV(items...)))
	if err != nil {
		return nil, err
	}
	return decodeFindResults(ret, len(qs))
}

// decodeFindResults validates a batch reply. Malformed shapes and a
// result count that disagrees with the question count are errors, never
// panics: the reply comes from a peer possibly running other software.
func decodeFindResults(ret marshal.Value, n int) ([]FindResult, error) {
	if ret.Kind != marshal.KindStruct || ret.Len() != 1 {
		return nil, errors.New("hns: batch reply is not a 1-field struct")
	}
	list := ret.Items[0]
	if list.Kind != marshal.KindList {
		return nil, errors.New("hns: batch reply body is not a list")
	}
	if list.Len() != n {
		return nil, fmt.Errorf("hns: batch reply has %d results for %d queries", list.Len(), n)
	}
	out := make([]FindResult, n)
	for i, it := range list.Items {
		if it.Kind != marshal.KindStruct || it.Len() != 2 {
			return nil, fmt.Errorf("hns: batch result %d is not an (err, binding) pair", i)
		}
		errText, err := it.Items[0].AsString()
		if err != nil {
			return nil, fmt.Errorf("hns: batch result %d: %v", i, err)
		}
		if errText != "" {
			out[i] = FindResult{Err: &hrpc.RemoteFault{Proc: procFindNSMBatch.Name, Msg: errText}}
			continue
		}
		b, err := qclass.ValueBinding(it.Items[1])
		if err != nil {
			return nil, fmt.Errorf("hns: batch result %d: %v", i, err)
		}
		out[i] = FindResult{Binding: b}
	}
	return out, nil
}
