// Command hcsd serves the three HCS application services — filing,
// mailbox, and remote execution — on one host over real sockets, speaking
// the Courier suite and registering its bindings in a Clearinghouse (the
// Xerox-world service discipline, which needs no portmapper).
//
// Usage:
//
//	hcsd -host xerox-d0 \
//	     -ch 127.0.0.1:5303 -ch-principal admin:cs:uw -ch-secret pw \
//	     -exec-object compute:cs:uw -files-object bigfiles:cs:uw \
//	     -mail-object mailsrv:cs:uw
//
// After an `hnsctl register-nsm` pointing the hrpcbinding-ch query class
// at a binding-ch nsmd, `hcs exec/file/mail` clients reach these services
// through the HNS.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"

	"hns/internal/clearinghouse"
	"hns/internal/filing"
	"hns/internal/hrpc"
	"hns/internal/mail"
	"hns/internal/qclass"
	"hns/internal/rexec"
	"hns/internal/transport"
)

func main() {
	var (
		host        = flag.String("host", "hcsd", "descriptive host name")
		chAddr      = flag.String("ch", "127.0.0.1:5303", "Clearinghouse address")
		chPrincipal = flag.String("ch-principal", "", "Clearinghouse principal")
		chSecret    = flag.String("ch-secret", "", "Clearinghouse secret")
		execObj     = flag.String("exec-object", "", "CH object to register the exec service under (empty disables)")
		filesObj    = flag.String("files-object", "", "CH object for the filing service (empty disables)")
		mailObj     = flag.String("mail-object", "", "CH object for the mailbox service (empty disables)")
		execAddr    = flag.String("exec-addr", "127.0.0.1:0", "exec service listen address")
		filesAddr   = flag.String("files-addr", "127.0.0.1:0", "filing service listen address")
		mailAddr    = flag.String("mail-addr", "127.0.0.1:0", "mailbox service listen address")
	)
	flag.Parse()

	net := transport.NewNetwork()
	rpc := hrpc.NewClient(net)
	defer rpc.Close()
	chB := hrpc.SuiteCourierNet.Bind(*chAddr, *chAddr, clearinghouse.Program, clearinghouse.Version)
	ch := clearinghouse.NewClient(rpc, chB, clearinghouse.NewCredentials(*chPrincipal, *chSecret))
	ctx := context.Background()

	serve := func(s *hrpc.Server, addr, object, label string) {
		if object == "" {
			return
		}
		ln, b, err := hrpc.Serve(net, s, hrpc.SuiteCourierNet, *host, addr)
		if err != nil {
			log.Fatalf("hcsd: %s: %v", label, err)
		}
		// Listener lives for the process; closed on exit.
		_ = ln
		n, err := clearinghouse.ParseName(object)
		if err != nil {
			log.Fatalf("hcsd: %s: %v", label, err)
		}
		if err := ch.AddItem(ctx, n, clearinghouse.PropBinding,
			[]byte(qclass.FormatBinding(b))); err != nil {
			log.Fatalf("hcsd: registering %s binding: %v", label, err)
		}
		log.Printf("hcsd: %s serving at %s, registered as %s", label, b, object)
	}

	serve(rexec.NewServer(*host).HRPCServer(), *execAddr, *execObj, "exec")
	serve(filing.NewServer(*host).HRPCServer(), *filesAddr, *filesObj, "filing")
	serve(mail.NewServer(*host).HRPCServer(), *mailAddr, *mailObj, "mailbox")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Println("hcsd: shutting down")
}
