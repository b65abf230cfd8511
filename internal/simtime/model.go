package simtime

import "time"

// ms converts a floating-point millisecond count into a Duration. The
// paper's measurements are reported in milliseconds with up to two decimal
// places, so microsecond resolution is ample.
func ms(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

// Model holds every calibrated cost constant in one place. Components never
// embed literal costs; they look them up here, so recalibrating the whole
// simulation is a one-file affair.
//
// Each constant notes the paper anchor it was derived from. Where the paper
// gives only an aggregate (e.g. "a BIND lookup takes 27 msec"), the
// decomposition into transport/server/marshalling shares is ours, chosen so
// that every aggregate the paper reports is the sum of the constants on the
// code path that produces it.
type Model struct {
	// ---- Transport round trips (client-observed, excluding server work).

	// RTTInProc is the cost of a same-address-space "call" through the
	// in-process transport. The paper treats local procedure calls as
	// "effectively zero in the time scale of the other terms".
	RTTInProc time.Duration
	// RTTUDP is a datagram round trip between two hosts on the Ethernet.
	// Anchor: BIND lookup = 27 ms total = RTTUDP + BindServerLookup +
	// hand-coded marshalling (~0.85 ms for a one-record answer).
	RTTUDP time.Duration
	// RTTTCP is a stream round trip between two hosts (higher than UDP:
	// acking, in-order delivery on a 10 Mbit Ethernet with 1987 stacks).
	// Anchor: Courier/raw calls run 30–38 ms versus Sun/UDP's 22 ms.
	RTTTCP time.Duration
	// RTTUDPLocal / RTTTCPLocal are the same round trips when client and
	// server are separate processes on one host (loopback, no Ethernet).
	// Anchor: "Locating them on the same host reduces the timings by
	// about 20 msec. in applicable configurations."
	RTTUDPLocal time.Duration
	RTTTCPLocal time.Duration
	// TCPConnSetup is charged once per dialed connection (SYN handshake +
	// server accept). Transports reuse connections, so steady-state calls
	// do not pay it.
	TCPConnSetup time.Duration

	// ---- Control-protocol per-call overhead of the 1987 suites (header
	// construction, the era's transaction-ID bookkeeping, retransmit
	// timers). It prices the paper's call paths, not the header bytes
	// hrpc puts on the wire (the raw suite carries no transaction ID).
	// Anchor: "The remote call to the NSM takes 22-38 msec., depending on
	// the RPC system used": Sun/UDP = 18+2+~2, Courier/TCP = 30+4+~4.
	CtlSunRPC  time.Duration
	CtlCourier time.Duration
	CtlRaw     time.Duration

	// ---- Marshalling.
	//
	// The paper's Table 3.2 and the accompanying prose give both sides:
	// the standard (hand-coded) BIND library routines cost 0.65 ms and
	// 2.6 ms for one- and six-record messages, while the stub-compiler
	// generated routines built on the Raw HRPC suite cost an order of
	// magnitude more ("procedure calls, indirect calls to marshalling
	// routines, unnecessary dynamic memory allocation, and unnecessary
	// levels of marshalling").

	// Hand-coded (standard BIND library style): base + per resource
	// record. 0.25 + 1×0.40 = 0.65 ms (1 RR); 0.25 + 6×0.40 = 2.65 ms
	// (≈ paper's 2.6 ms for 6 RRs).
	HandMarshalBase  time.Duration
	HandMarshalPerRR time.Duration

	// Generated (stub-compiler) routines: base + per resource record.
	// Anchor: Table 3.2 marshalled-cache-hit column is exactly one
	// generated demarshal per access: 8.11 + 1×3.0 = 11.11 ms (1 RR),
	// 8.11 + 6×3.01 ≈ 26.17 ms (6 RRs).
	GenMarshalBase  time.Duration
	GenMarshalPerRR time.Duration
	// GenMarshalRequest is the cost of generated-marshalling a query
	// message (one name, fixed shape).
	GenMarshalRequest time.Duration
	// GenPerNode prices generic value-tree marshalling for non-BIND
	// messages (NSM argument/response records), per value node visited.
	GenPerNode time.Duration
	// HandPerNode is the hand-coded equivalent.
	HandPerNode time.Duration

	// ---- Server-side work.

	// BindServerLookup: in-memory hash lookup plus answer assembly on the
	// BIND server. Anchor: 27 ms aggregate minus RTTUDP and hand
	// marshalling.
	BindServerLookup time.Duration
	// BindServerUpdate: a dynamic update against the modified BIND
	// (validate, mutate in-memory zone, bump serial).
	BindServerUpdate time.Duration
	// ZoneXferBase / ZoneXferPerRR: an AXFR-style transfer of a zone over
	// TCP, per the preloading experiment. Anchor: preloading ~2 KB of
	// meta-information cost ~390 ms.
	ZoneXferBase  time.Duration
	ZoneXferPerRR time.Duration

	// CHAuth is the Clearinghouse's per-access authentication handshake;
	// CHDiskRead its disk-resident property fetch; CHServerWork the
	// remaining request processing. Anchor: "a Clearinghouse name to
	// address lookup takes 156 msec" = RTTTCP + CtlCourier + auth + disk
	// + work + marshalling; the footnote attributes the bulk to
	// authentication and disk.
	CHAuth       time.Duration
	CHDiskRead   time.Duration
	CHServerWork time.Duration
	// CHWriteThrough is the extra cost of a Clearinghouse update
	// (disk write + replication initiation).
	CHWriteThrough time.Duration

	// FSRead / FSWritePerKB price file-server operations for the filing
	// application built on the HNS (HCS filing; the heterogeneous file
	// system of the paper's conclusions): a disk read to open/fetch, and
	// a per-kilobyte transfer/write charge.
	FSRead       time.Duration
	FSWritePerKB time.Duration

	// RetransmitTimeout is how long a Sun-style RPC client waits before
	// retransmitting a datagram it assumes lost. Charged per retry.
	RetransmitTimeout time.Duration

	// PortmapLookup is the portmapper's table probe (in-memory, tiny).
	PortmapLookup time.Duration
	// ActivationProbe is the null-procedure ping Sun-style binding sends
	// to confirm the server is actually up before handing out a binding.
	ActivationProbe time.Duration

	// CacheAccess is a demarshalled cache probe: hash + copy out.
	// Anchor: Table 3.2 demarshalled-hit column (0.83 ms for 1 RR; the
	// per-RR copy shows up as CacheAccessPerRR ≈ 0.08, giving 1.22 ms for
	// 6 RRs).
	CacheAccess      time.Duration
	CacheAccessPerRR time.Duration

	// FindNSMAssembly is the HNS-side glue per FindNSM: argument
	// validation, context parsing, binding construction.
	FindNSMAssembly time.Duration
	// NSMWork is the NSM-side glue per query: individual-name→local-name
	// translation and result standardisation.
	NSMWork time.Duration

	// ---- Baselines.

	// FileRegRead / FileRegScanPerEntry: the interim binding mechanism
	// "based on information reregistered in replicated local files":
	// open+read a local hosts-style file, then scan it serially. Anchor:
	// 200 ms per binding with ~180 registered services.
	FileRegRead         time.Duration
	FileRegScanPerEntry time.Duration
	// Rereg* price the background reregistration traffic of both
	// baselines (per entry pushed to the replica/Clearinghouse).
	ReregPerEntry time.Duration
}

// Default returns the model calibrated against the paper's measurements.
// See each field's comment for the anchor.
func Default() *Model {
	return &Model{
		RTTInProc:    ms(0.05),
		RTTUDP:       ms(18.0),
		RTTTCP:       ms(30.0),
		RTTUDPLocal:  ms(6.0),
		RTTTCPLocal:  ms(10.0),
		TCPConnSetup: ms(12.0),

		CtlSunRPC:  ms(2.0),
		CtlCourier: ms(4.0),
		CtlRaw:     ms(3.0),

		HandMarshalBase:  ms(0.25),
		HandMarshalPerRR: ms(0.40),
		GenMarshalBase:   ms(8.11),
		GenMarshalPerRR:  ms(3.01),

		GenMarshalRequest: ms(2.0),
		GenPerNode:        ms(0.35),
		HandPerNode:       ms(0.04),

		BindServerLookup: ms(8.0),
		BindServerUpdate: ms(11.0),
		ZoneXferBase:     ms(120.0),
		ZoneXferPerRR:    ms(5.5),

		CHAuth:         ms(48.0),
		CHDiskRead:     ms(64.0),
		CHServerWork:   ms(5.0),
		CHWriteThrough: ms(40.0),

		FSRead:       ms(35.0),
		FSWritePerKB: ms(9.0),

		RetransmitTimeout: ms(250.0),

		PortmapLookup:   ms(2.0),
		ActivationProbe: ms(20.0),

		CacheAccess:      ms(0.75),
		CacheAccessPerRR: ms(0.08),

		FindNSMAssembly: ms(3.0),
		NSMWork:         ms(2.5),

		FileRegRead:         ms(60.0),
		FileRegScanPerEntry: ms(0.7),
		ReregPerEntry:       ms(1.5),
	}
}

// HandMarshal prices a hand-coded (de)marshal of a message carrying n
// resource records.
func (m *Model) HandMarshal(n int) time.Duration {
	return m.HandMarshalBase + time.Duration(n)*m.HandMarshalPerRR
}

// GenMarshal prices a generated-stub (de)marshal of a message carrying n
// resource records.
func (m *Model) GenMarshal(n int) time.Duration {
	return m.GenMarshalBase + time.Duration(n)*m.GenMarshalPerRR
}

// CacheHit prices a demarshalled cache access returning n resource records.
func (m *Model) CacheHit(n int) time.Duration {
	return m.CacheAccess + time.Duration(n)*m.CacheAccessPerRR
}

// ZoneXfer prices an AXFR-style transfer of n resource records.
func (m *Model) ZoneXfer(n int) time.Duration {
	return m.ZoneXferBase + time.Duration(n)*m.ZoneXferPerRR
}
