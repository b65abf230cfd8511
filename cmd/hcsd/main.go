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
	"flag"

	"hns/internal/daemon"
)

// flags defines hcsd's flags on fs, one field of the config each.
func flags(fs *flag.FlagSet) *daemon.HcsdConfig {
	c := &daemon.HcsdConfig{}
	fs.StringVar(&c.Host, "host", "hcsd", "descriptive host name")
	fs.StringVar(&c.CH, "ch", "127.0.0.1:5303", "Clearinghouse address")
	fs.StringVar(&c.CHPrincipal, "ch-principal", "", "Clearinghouse principal")
	fs.StringVar(&c.CHSecret, "ch-secret", "", "Clearinghouse secret")
	fs.StringVar(&c.ExecObject, "exec-object", "", "CH object to register the exec service under (empty disables)")
	fs.StringVar(&c.FilesObject, "files-object", "", "CH object for the filing service (empty disables)")
	fs.StringVar(&c.MailObject, "mail-object", "", "CH object for the mailbox service (empty disables)")
	fs.StringVar(&c.ExecAddr, "exec-addr", "127.0.0.1:0", "exec service listen address")
	fs.StringVar(&c.FilesAddr, "files-addr", "127.0.0.1:0", "filing service listen address")
	fs.StringVar(&c.MailAddr, "mail-addr", "127.0.0.1:0", "mailbox service listen address")
	return c
}

func main() {
	c := flags(flag.CommandLine)
	flag.Parse()
	daemon.Run("hcsd", "", func() (*daemon.Daemon, error) { return daemon.Hcsd(*c) })
}
