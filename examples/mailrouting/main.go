// Mailrouting: the mail application the HCS project layered on the HNS —
// and the paper's contrast with sendmail. A mail agent must route messages
// to users whose mailbox data lives in different name services with
// different semantics. With the HNS, the agent resolves every user through
// one query class; the per-service parsing/semantics live in the MailRoute
// NSMs, not in the mailer (sendmail's rewriting rules centralised exactly
// this knowledge in every host's mailer, which is what the paper
// criticises).
//
//	go run ./examples/mailrouting
package main

import (
	"context"
	"fmt"
	"log"

	"hns/internal/names"
	"hns/internal/nsm"
	"hns/internal/qclass"
	"hns/internal/world"
)

// message is a toy mail message.
type message struct {
	to   names.Name
	body string
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	w, err := world.New(world.Config{})
	if err != nil {
		return err
	}
	defer w.Close()

	fmt.Println("mail routing across heterogeneous user registries")
	fmt.Println()

	// The outbound queue holds mail for a UNIX user (registered in BIND)
	// and a Xerox user (registered in the Clearinghouse).
	queue := []message{
		{to: names.Must(world.CtxMailB, world.MailUserBind), body: "SOSP deadline!"},
		{to: names.Must(world.CtxMailCH, world.MailUserCH), body: "D-machine reboot at 5"},
		{to: names.Must(world.CtxMailB, world.MailUserBind), body: "re: SOSP deadline"},
	}

	// The mailer's entire routing logic — identical for every world:
	route := func(m message) (string, string, error) {
		nsmB, err := w.HNS.FindNSM(ctx, m.to, qclass.MailRoute)
		if err != nil {
			return "", "", err
		}
		return nsm.CallMailRoute(ctx, w.RPC, nsmB, m.to)
	}

	delivered := map[string]int{}
	for _, m := range queue {
		host, discipline, err := route(m)
		if err != nil {
			return fmt.Errorf("routing %s: %w", m.to, err)
		}
		delivered[host]++
		fmt.Printf("  %-28s -> mailbox host %-26s via %s\n", m.to.Individual, host, discipline)
	}
	fmt.Println()

	// Unroutable users fail cleanly, they don't bounce around rewriting
	// rules.
	if _, _, err := route(message{to: names.Must(world.CtxMailB, "nobody.cs.washington.edu")}); err != nil {
		fmt.Printf("  nobody.cs.washington.edu     -> bounced: %v\n", err)
	}
	fmt.Println()

	st := w.HNS.Stats()
	fmt.Printf("deliveries per host: %v\n", delivered)
	fmt.Printf("HNS meta-cache hit rate after the run: %.0f%% — repeat recipients ride the cache\n",
		st.Cache.HitRate()*100)
	fmt.Println()
	fmt.Println("The mailer contains no name-service-specific code: adding a new user")
	fmt.Println("registry means writing one MailRoute NSM, not touching any mail agent.")
	return nil
}
