package mail_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"hns/internal/clearinghouse"
	"hns/internal/hcs"
	"hns/internal/hrpc"
	"hns/internal/mail"
	"hns/internal/names"
	"hns/internal/qclass"
	"hns/internal/world"
)

// mailEnv is a world with mailbox servers in both worlds: one on june
// (where world's BIND mail records point) and one behind the CH mailsrv
// object.
type mailEnv struct {
	w         *world.World
	agent     *mail.Agent
	juneBox   *mail.Server
	xeroxBox  *mail.Server
	xeroxStop func()
}

func newMailEnv(t *testing.T) *mailEnv {
	t.Helper()
	w, err := world.New(world.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	ctx := context.Background()

	// BIND-world mailbox server on june (MailHostBind), a Sun service.
	juneBox := mail.NewServer("june")
	lnJ, bJ, err := hrpc.Serve(w.Net, juneBox.HRPCServer(), hrpc.SuiteSunRPC, "june", "june:mailbox")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lnJ.Close() })
	w.Portmappers["june"].Set(mail.Program, mail.Version, "udp", bJ.Addr)

	// CH-world mailbox server (MailHostCH = mailsrv:cs:uw), a Courier
	// service whose binding lives in the Clearinghouse.
	xeroxBox := mail.NewServer("mailsrv")
	lnX, bX, err := hrpc.Serve(w.Net, xeroxBox.HRPCServer(), hrpc.SuiteCourier, "mailsrv", "xerox:mailbox")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lnX.Close() })
	if err := w.CHClient().AddItem(ctx, clearinghouse.MustName(world.MailHostCH),
		clearinghouse.PropBinding, []byte(qclass.FormatBinding(bX))); err != nil {
		t.Fatal(err)
	}

	agent := mail.NewAgent(hcs.New(w.HNS, w.RPC), w.RPC, map[string]string{
		"smtp":      world.CtxBind,
		"grapevine": world.CtxCH,
	})
	return &mailEnv{
		w: w, agent: agent, juneBox: juneBox, xeroxBox: xeroxBox,
		xeroxStop: func() { lnX.Close() },
	}
}

func TestSendBothWorlds(t *testing.T) {
	env := newMailEnv(t)
	ctx := context.Background()

	// UNIX user (registered in BIND, delivered via Sun RPC).
	id, err := env.agent.Send(ctx, mail.Message{
		From: "zahorjan", To: names.Must(world.CtxMailB, world.MailUserBind),
		Subject: "camera ready", Body: "due friday",
	})
	if err != nil || id == 0 {
		t.Fatalf("bind-world send: %d, %v", id, err)
	}
	got := env.juneBox.List(ctx, world.MailUserBind)
	if len(got) != 1 || got[0].Subject != "camera ready" {
		t.Fatalf("june mailbox = %v", got)
	}

	// Xerox user (registered in CH, delivered via Courier).
	id, err = env.agent.Send(ctx, mail.Message{
		From: "schwartz", To: names.Must(world.CtxMailCH, world.MailUserCH),
		Subject: "d-machine", Body: "rebooting at 5",
	})
	if err != nil || id == 0 {
		t.Fatalf("ch-world send: %d, %v", id, err)
	}
	got = env.xeroxBox.List(ctx, world.MailUserCH)
	if len(got) != 1 || got[0].From != "schwartz" {
		t.Fatalf("xerox mailbox = %v", got)
	}
}

func TestReadMailbox(t *testing.T) {
	env := newMailEnv(t)
	ctx := context.Background()
	for _, subj := range []string{"one", "two"} {
		if _, err := env.agent.Send(ctx, mail.Message{
			From: "x", To: names.Must(world.CtxMailB, world.MailUserBind),
			Subject: subj,
		}); err != nil {
			t.Fatal(err)
		}
	}
	msgs, err := env.agent.ReadMailbox(ctx, names.Must(world.CtxMailB, world.MailUserBind))
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 || msgs[0].Subject != "one" || msgs[1].Subject != "two" {
		t.Fatalf("ReadMailbox = %v", msgs)
	}
}

func TestUnknownUserBouncesNotSpools(t *testing.T) {
	env := newMailEnv(t)
	_, err := env.agent.Send(context.Background(), mail.Message{
		From: "x", To: names.Must(world.CtxMailB, "nobody.cs.washington.edu"),
	})
	var bounce *mail.BounceError
	if !errors.As(err, &bounce) {
		t.Fatalf("want BounceError, got %v", err)
	}
	if env.agent.Spooled() != 0 {
		t.Fatal("bounce was spooled")
	}
}

func TestUnroutableDisciplineBounces(t *testing.T) {
	env := newMailEnv(t)
	// An agent that only knows the smtp world cannot route grapevine.
	narrow := mail.NewAgent(hcs.New(env.w.HNS, env.w.RPC), env.w.RPC,
		map[string]string{"smtp": world.CtxBind})
	_, err := narrow.Send(context.Background(), mail.Message{
		From: "x", To: names.Must(world.CtxMailCH, world.MailUserCH),
	})
	var bounce *mail.BounceError
	if !errors.As(err, &bounce) || !strings.Contains(err.Error(), "grapevine") {
		t.Fatalf("want grapevine bounce, got %v", err)
	}
}

func TestSpoolAndFlush(t *testing.T) {
	env := newMailEnv(t)
	ctx := context.Background()

	// The Xerox mailbox server goes down; delivery spools.
	env.xeroxStop()
	_, err := env.agent.Send(ctx, mail.Message{
		From: "x", To: names.Must(world.CtxMailCH, world.MailUserCH),
		Subject: "while you were out",
	})
	if err == nil || env.agent.Spooled() != 1 {
		t.Fatalf("send while down: err=%v spooled=%d", err, env.agent.Spooled())
	}
	// Flushing while still down keeps the message.
	if n, _ := env.agent.Flush(ctx); n != 0 || env.agent.Spooled() != 1 {
		t.Fatalf("flush while down delivered %d, spool %d", n, env.agent.Spooled())
	}

	// The server comes back at the same Courier endpoint.
	lnX, bX, err := hrpc.Serve(env.w.Net, env.xeroxBox.HRPCServer(), hrpc.SuiteCourier, "mailsrv", "xerox:mailbox")
	if err != nil {
		t.Fatal(err)
	}
	defer lnX.Close()
	if err := env.w.CHClient().AddItem(ctx, clearinghouse.MustName(world.MailHostCH),
		clearinghouse.PropBinding, []byte(qclass.FormatBinding(bX))); err != nil {
		t.Fatal(err)
	}
	env.w.CHBindingNSM.FlushCache() // the NSM may have cached the dead binding

	n, err := env.agent.Flush(ctx)
	if err != nil || n != 1 || env.agent.Spooled() != 0 {
		t.Fatalf("flush after restart: n=%d spool=%d err=%v", n, env.agent.Spooled(), err)
	}
	if got := env.xeroxBox.List(ctx, world.MailUserCH); len(got) != 1 {
		t.Fatalf("spooled message not delivered: %v", got)
	}
}

func TestServerDirect(t *testing.T) {
	env := newMailEnv(t)
	ctx := context.Background()
	if _, err := env.juneBox.Deliver(ctx, "", "f", "s", "b"); err == nil {
		t.Fatal("empty recipient accepted")
	}
	id, err := env.juneBox.Deliver(ctx, "u", "f", "s", "body text")
	if err != nil {
		t.Fatal(err)
	}
	m, err := env.juneBox.Read(ctx, "u", id)
	if err != nil || m.Body != "body text" {
		t.Fatalf("Read = %+v, %v", m, err)
	}
	if _, err := env.juneBox.Read(ctx, "u", id+99); err == nil {
		t.Fatal("missing message read")
	}
}
