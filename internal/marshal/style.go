package marshal

import (
	"context"
	"time"

	"hns/internal/simtime"
)

// Style distinguishes how marshalling code was produced, which the paper
// found to matter enormously (Table 3.2): the stub-compiler generated
// routines paid for "procedure calls, indirect calls to marshalling
// routines, unnecessary dynamic memory allocation, and unnecessary levels
// of marshalling", while the hand-coded standard BIND library routines did
// not. The byte layout is identical either way — only the simulated cost
// differs — just as the paper's two implementations produced the same
// messages at very different prices.
type Style uint8

// The marshalling styles.
const (
	// StyleGenerated models stub-compiler output (the HRPC interface the
	// prototype generated for BIND).
	StyleGenerated Style = iota
	// StyleHand models hand-written routines (the standard BIND library),
	// priced per message by ChargeRecords.
	StyleHand
	// StyleNone charges nothing; used by services that account for their
	// marshalling explicitly (the BIND codec prices whole messages by
	// resource-record count, per Table 3.2).
	StyleNone
)

// String implements fmt.Stringer.
func (s Style) String() string {
	switch s {
	case StyleHand:
		return "hand"
	case StyleNone:
		return "none"
	default:
		return "generated"
	}
}

// ChargeValue charges ctx for a generated stub (de)marshalling a message
// of declared type t, per value node of t; StyleNone is free. t may be the
// 1987 shape rather than the wire's (hrpc.Procedure.PaperArgs): only list
// lengths are read from v, the live message, whose fields line up with t's.
func ChargeValue(ctx context.Context, s Style, t Type, v Value) {
	meter := simtime.From(ctx)
	if meter == nil || s == StyleNone {
		return // nobody is billed: skip walking the type
	}
	meter.Charge(time.Duration(nodes(t, v)) * simtime.GenPerNode)
}

// nodes counts the value nodes of type t, each list as long as v's list in
// the same place (empty where v has no such field).
func nodes(t Type, v Value) int {
	n := 1
	switch t.Kind {
	case KindList:
		for _, it := range v.Items {
			n += nodes(*t.Elem, it)
		}
	case KindStruct:
		for i, ft := range t.Fields {
			var fv Value
			if i < len(v.Items) {
				fv = v.Items[i]
			}
			n += nodes(ft, fv)
		}
	}
	return n
}

// ChargeRecords charges ctx for (de)marshalling a resource-record message
// carrying n records, using the paper's directly measured per-message
// costs (Table 3.2 and the standard-library figures).
func ChargeRecords(ctx context.Context, s Style, n int) {
	if s == StyleHand {
		simtime.Charge(ctx, simtime.HandMarshal(n))
		return
	}
	simtime.Charge(ctx, simtime.GenMarshal(n))
}
