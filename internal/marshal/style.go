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
	// StyleHand models hand-written routines (the standard BIND library).
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

// ChargeValue charges ctx for (de)marshalling the value tree v in the given
// style, priced per node visited.
func ChargeValue(ctx context.Context, s Style, v Value) {
	meter := simtime.From(ctx)
	if meter == nil {
		return // nobody is billed: skip walking the tree
	}
	n := NodeCount(v)
	var d time.Duration
	switch s {
	case StyleHand:
		d = time.Duration(n) * simtime.HandPerNode
	case StyleNone:
		return
	default:
		d = time.Duration(n) * simtime.GenPerNode
	}
	meter.Charge(d)
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
