package transport_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"regexp"
	"strings"
	"syscall"
	"testing"

	"hns/internal/bind"
	"hns/internal/health"
	"hns/internal/hrpc"
	"hns/internal/marshal"
	"hns/internal/transport"
)

// row is what the table answers for one code.
type row struct{ answered, waited, keepsConn, unreachable, notFound bool }

// wantRows restates the table's rows independently of it.
var wantRows = map[transport.Code]row{
	transport.CodeUnknown:        {},
	transport.CodeRefused:        {unreachable: true},
	transport.CodeClosed:         {unreachable: true},
	transport.CodeLost:           {waited: true, unreachable: true},
	transport.CodeBroken:         {unreachable: true},
	transport.CodeExpired:        {waited: true, keepsConn: true, unreachable: true},
	transport.CodeCanceled:       {keepsConn: true, unreachable: true},
	transport.CodeTimeout:        {waited: true, unreachable: true},
	transport.CodeSocket:         {unreachable: true},
	transport.CodeRemote:         {answered: true, keepsConn: true},
	transport.CodeRemoteFault:    {answered: true, keepsConn: true},
	transport.CodeExhausted:      {unreachable: true},
	transport.CodeOverloaded:     {keepsConn: true},
	transport.CodeBudgetExpired:  {keepsConn: true},
	transport.CodeBadFrame:       {},
	transport.CodeNoPush:         {answered: true, keepsConn: true},
	transport.CodeNoLiveEndpoint: {unreachable: true},
	transport.CodeNotFound:       {answered: true, keepsConn: true, notFound: true},
}

func checkCode(t *testing.T, label string, err error, want transport.Code) {
	t.Helper()
	c := transport.CodeOf(err)
	if c != want {
		t.Errorf("%s: transport.CodeOf(%v) = %s, want %s", label, err, c, want)
		return
	}
	got := row{c.Answered(), c.Waited(), c.KeepsConn(), c.Unreachable(), c.NotFound()}
	if got != wantRows[c] {
		t.Errorf("%s: %s answers %+v, want %+v", label, c, got, wantRows[c])
	}
}

// noPushErr fails a real Listen: a Faulty connection carries no pushes.
func noPushErr(t *testing.T) error {
	t.Helper()
	n := transport.NewNetwork()
	inner, _ := n.Transport("inproc")
	n.Register(transport.NewFaulty(inner, "inproc-faulty", nil))
	ln, b, err := hrpc.Serve(n, hrpc.NewServer("null", 7200, 1),
		hrpc.Suite{Transport: "inproc-faulty", DataRep: "packed", Control: "raw"}, "h", "h:null")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c := hrpc.NewClient(n)
	defer c.Close()
	_, _, err = c.Listen(context.Background(), b, hrpc.NullProc, marshal.StructV(), func([]byte, error) {})
	if err == nil || !errors.Is(err, errors.ErrUnsupported) {
		t.Fatalf("Listen on a Faulty connection = %v, want errors.ErrUnsupported", err)
	}
	return err
}

func TestCodeOf(t *testing.T) {
	timeout := &net.OpError{Op: "read", Net: "tcp", Err: os.ErrDeadlineExceeded}
	refused := &net.OpError{Op: "dial", Net: "tcp",
		Err: &os.SyscallError{Syscall: "connect", Err: syscall.ECONNREFUSED}}
	cases := []struct {
		err  error
		code transport.Code
	}{
		{transport.ErrRefused, transport.CodeRefused},
		{transport.ErrClosed, transport.CodeClosed},
		{transport.ErrInjectedLoss, transport.CodeLost},
		{transport.ErrConnBroken, transport.CodeBroken},
		{&transport.ConnBrokenError{ConnID: 1, Cause: transport.ErrClosed}, transport.CodeBroken},
		{&transport.CallExpiredError{}, transport.CodeExpired},
		{&transport.CallExpiredError{Cause: context.DeadlineExceeded}, transport.CodeExpired},
		{&transport.CallExpiredError{Cause: context.Canceled}, transport.CodeCanceled},
		{timeout, transport.CodeTimeout},
		{context.DeadlineExceeded, transport.CodeTimeout},
		{refused, transport.CodeSocket},
		{&transport.RemoteError{Msg: "boom"}, transport.CodeRemote},
		{&hrpc.RemoteFault{Proc: "P", Msg: "no"}, transport.CodeRemoteFault},
		{hrpc.ErrCallTimeout, transport.CodeExhausted},
		{&hrpc.CallTimeout{Addr: "a", Attempts: 2, LastErr: transport.ErrInjectedLoss}, transport.CodeExhausted},
		{hrpc.ErrOverloaded, transport.CodeOverloaded},
		{&hrpc.BackpressureError{Endpoint: "a", Reason: "rate"}, transport.CodeOverloaded},
		{hrpc.ErrBudgetExpired, transport.CodeBudgetExpired},
		{&hrpc.BudgetExpiredError{Endpoint: "a", Proc: "P"}, transport.CodeBudgetExpired},
		{hrpc.ErrBadFrame, transport.CodeBadFrame},
		{noPushErr(t), transport.CodeNoPush},
		{health.ErrNoLiveEndpoint, transport.CodeNoLiveEndpoint},
		{&bind.NotFoundError{Name: "x", Type: bind.TypeA, RCode: bind.RCodeNXDomain}, transport.CodeNotFound},
		{errors.New("some app error"), transport.CodeUnknown},
		{context.Canceled, transport.CodeUnknown},
		{nil, transport.CodeUnknown},
	}
	for _, c := range cases {
		checkCode(t, "bare", c.err, c.code)
		if c.err == nil {
			continue
		}
		checkCode(t, "wrapped", fmt.Errorf("context: %w", c.err), c.code)
		hw := fmt.Errorf("hrpc: %s to %s: %w", "P", "a", c.err)
		checkCode(t, "hrpc-wrapped", hw, c.code)
		// The outermost code wins: a call that gave up reads as
		// exhausted, and what it gave up on is still in its chain.
		ct := &hrpc.CallTimeout{Addr: "a", Attempts: 1, LastErr: hw}
		checkCode(t, "in CallTimeout", ct, transport.CodeExhausted)
		if !errors.Is(ct, c.err) {
			t.Errorf("errors.Is(%v, %v) = false through CallTimeout", ct, c.err)
		}
	}
}

func TestCodeNames(t *testing.T) {
	form := regexp.MustCompile(`^[a-z]+\.[a-z]+(_[a-z]+)*$`)
	seen := map[string]bool{}
	for c := transport.CodeUnknown; c <= transport.CodeNotFound; c++ {
		name := c.String()
		if !form.MatchString(name) {
			t.Errorf("code %d name %q is not package.name", c, name)
		}
		for _, word := range strings.FieldsFunc(name, func(r rune) bool { return r == '.' || r == '_' }) {
			if word == "err" || word == "error" {
				t.Errorf("code name %q uses %q", name, word)
			}
		}
		if seen[name] {
			t.Errorf("code name %q repeats", name)
		}
		seen[name] = true
		if _, ok := wantRows[c]; !ok {
			t.Errorf("code %s has no row in the test", name)
		}
	}
}
