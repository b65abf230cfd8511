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
	keep    uint32 // the slot's keep, as procFindNSM's
}

// procFindNSMBatch is the batch resolution procedure, priced like
// procFindNSM by the 1987 call and binding in each slot.
//
//	args: {[{context, queryClass}]}
//	ret:  {[{errText, nsmBinding, keep}]}  — errText empty on success, and
//	      then the binding and keep are meaningful; positionally matched to
//	      args.
var procFindNSMBatch = hrpc.Procedure{
	Name: "FindNSMBatch", ID: ProcFindNSMBatchID,
	Args:      marshal.TStruct(marshal.TList(marshal.TStruct(marshal.TString, marshal.TString))),
	Ret:       marshal.TStruct(marshal.TList(marshal.TStruct(marshal.TString, nsmBindingType, marshal.TUint32))),
	PaperArgs: marshal.TStruct(marshal.TList(paperFindArgs)),
	PaperRet:  marshal.TStruct(marshal.TList(marshal.TStruct(marshal.TString, qclass.BindingType))),
}

// registerFindBatch installs the batch procedure on an HNS server over
// any ContextFinder (a remote HNS batches through; others loop).
func (fs finderServer) registerFindBatch(s *hrpc.Server) {
	s.Register(procFindNSMBatch, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		qs := args.Items[0]
		if qs.Len() > MaxFindBatch {
			return marshal.Value{}, fmt.Errorf("hns: batch of %d exceeds limit %d", qs.Len(), MaxFindBatch)
		}
		// Per-name status: each slot carries its own error text (the
		// reply-level error is reserved for malformed batches). Slots
		// whose contexts parse go to the finder together — a RemoteHNS
		// batches them upstream in one call, which is what lets a
		// gateway amortize its forwarding too.
		queries := make([]NameQuery, qs.Len())
		for i, it := range qs.Items {
			cx, err := it.Items[0].AsString()
			if err != nil {
				return marshal.Value{}, err
			}
			qc, err := it.Items[1].AsString()
			if err != nil {
				return marshal.Value{}, err
			}
			queries[i] = NameQuery{Name: names.Name{Context: cx}, QueryClass: qc}
		}
		res, err := findValid(queries, func(q *NameQuery) (err error) {
			q.Name.Context, err = names.CanonicalContext(q.Name.Context)
			return err
		}, func(valid []NameQuery) ([]FindResult, error) {
			if r, ok := fs.f.(*RemoteHNS); ok {
				return r.findContexts(ctx, valid) // its slots promise nothing: keep 0
			}
			out := make([]FindResult, len(valid))
			for i, q := range valid {
				out[i].Binding, out[i].keep, out[i].Err = fs.find(ctx, q.Name.Context, q.QueryClass)
			}
			return out, nil
		})
		if err != nil {
			return marshal.Value{}, err
		}
		results := make([]marshal.Value, len(res))
		for i, r := range res {
			var errText string
			if r.Err != nil {
				errText, r.Binding = r.Err.Error(), hrpc.Binding{}
			}
			results[i] = marshal.StructV(marshal.Str(errText), nsmBindingValue(r.Binding), marshal.U32(r.keep))
		}
		return marshal.StructV(marshal.ListV(results...)), nil
	})
}

// findValid resolves the queries that pass check (which may canonicalize
// them) in one find call; every other slot keeps its check error.
func findValid(qs []NameQuery, check func(*NameQuery) error, find func([]NameQuery) ([]FindResult, error)) ([]FindResult, error) {
	out := make([]FindResult, len(qs))
	valid := make([]NameQuery, 0, len(qs))
	slots := make([]int, 0, len(qs))
	for i := range qs {
		if out[i].Err = check(&qs[i]); out[i].Err == nil {
			valid = append(valid, qs[i])
			slots = append(slots, i)
		}
	}
	if len(valid) == 0 {
		return out, nil
	}
	res, err := find(valid)
	if err != nil {
		return nil, err
	}
	for j, r := range res {
		out[slots[j]] = r
	}
	return out, nil
}

// FindNSMBatch resolves a batch over the wire in one call; a malformed
// name fills its own slot here and is not sent.
func (r *RemoteHNS) FindNSMBatch(ctx context.Context, qs []NameQuery) ([]FindResult, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	if len(qs) > MaxFindBatch {
		return nil, fmt.Errorf("hns: batch of %d exceeds limit %d", len(qs), MaxFindBatch)
	}
	return findValid(qs, func(q *NameQuery) error { return q.Name.Validate() },
		func(valid []NameQuery) ([]FindResult, error) { return r.findContexts(ctx, valid) })
}

// findContexts sends the (context, query class) of each query in one
// FindNSMBatch call, then asks for the watch as find does. Its answers are
// not kept, and a gateway forwards them with keep 0.
func (r *RemoteHNS) findContexts(ctx context.Context, qs []NameQuery) ([]FindResult, error) {
	items := make([]marshal.Value, len(qs))
	for i, q := range qs {
		items[i] = marshal.StructV(marshal.Str(q.Name.Context), marshal.Str(q.QueryClass))
	}
	ret, err := r.c.Call(ctx, r.b, procFindNSMBatch, marshal.StructV(marshal.ListV(items...)))
	if err != nil {
		return nil, err
	}
	r.promise(ctx)
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
		if it.Kind != marshal.KindStruct || it.Len() != 3 {
			return nil, fmt.Errorf("hns: batch result %d is not an (err, binding, keep) triple", i)
		}
		errText, err := it.Items[0].AsString()
		if err != nil {
			return nil, fmt.Errorf("hns: batch result %d: %v", i, err)
		}
		if errText != "" {
			out[i] = FindResult{Err: &hrpc.RemoteFault{Proc: procFindNSMBatch.Name, Msg: errText}}
			continue
		}
		b, err := valueNSMBinding(it.Items[1])
		if err != nil {
			return nil, fmt.Errorf("hns: batch result %d: %v", i, err)
		}
		out[i] = FindResult{Binding: b}
	}
	return out, nil
}
