// Command hnsctl is the administrative and query client for a deployed
// HNS federation (bindd + chd + hnsd + nsmd over real sockets).
//
// Subcommands:
//
//	hnsctl find    -hns 127.0.0.1:5310 <context> <individual> <queryclass>
//	hnsctl resolve -hns 127.0.0.1:5310 <context> <individual>
//	hnsctl lookup  -server 127.0.0.1:5302 <name> <type>
//	hnsctl register-ns      -meta 127.0.0.1:5301 <name> <type>
//	hnsctl register-context -meta 127.0.0.1:5301 <context> <nameservice>
//	hnsctl register-nsm     -meta 127.0.0.1:5301 -name N -ns NS -qclass QC \
//	                        -nsm-host H -hostctx C -port P -suite t,d,c
//	hnsctl dump    -meta 127.0.0.1:5301
//	hnsctl watch   -meta 127.0.0.1:5301 [-zone hns] [<zone>|<name>...]
//	hnsctl stats   -from 127.0.0.1:5390 [-filter substr]
//	hnsctl health  -from 127.0.0.1:5390
//	hnsctl admit   -from 127.0.0.1:5321
//
// Registrations write meta records through the modified BIND's dynamic
// update interface; `dump` prints the whole meta zone as a zone file.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"hns/internal/bind"
	"hns/internal/core"
	"hns/internal/hrpc"
	"hns/internal/names"
	"hns/internal/nsm"
	"hns/internal/qclass"
	"hns/internal/transport"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	env := &env{
		net: transport.NewNetwork(),
	}
	env.rpc = hrpc.NewClient(env.net)
	defer env.rpc.Close()

	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "find":
		err = cmdFind(env, args, false)
	case "resolve":
		err = cmdFind(env, args, true)
	case "lookup":
		err = cmdLookup(env, args)
	case "register-ns":
		err = cmdRegisterPair(env, args, cmd, "<name> <type>", core.NameServiceRecord)
	case "register-context":
		err = cmdRegisterPair(env, args, cmd, "<context> <nameservice>", core.ContextRecord)
	case "register-nsm":
		err = cmdRegisterNSM(env, args)
	case "unregister-context":
		err = cmdUnregister(env, args, "context")
	case "unregister-nsm":
		err = cmdUnregister(env, args, "nsm")
	case "dump":
		err = cmdDump(env, args)
	case "watch":
		err = cmdWatch(env, args)
	case "stats":
		err = cmdStats(args)
	case "store":
		err = cmdStore(args)
	case "health":
		err = cmdHealth(args)
	case "admit":
		err = cmdAdmit(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hnsctl %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: hnsctl {find|resolve|lookup|register-ns|register-context|register-nsm|unregister-context|unregister-nsm|dump|watch|stats|store|health|admit} [flags] args...")
	os.Exit(2)
}

type env struct {
	net *transport.Network
	rpc *hrpc.Client
}

// metaClient opens the meta-BIND's HRPC interface.
func (e *env) metaClient(addr string) *bind.HRPCClient {
	c := hrpc.NewClient(e.net)
	c.FreshConn = true
	return bind.NewHRPCClient(c,
		hrpc.SuiteRawNet.Bind(addr, addr, bind.HRPCProgram, bind.HRPCVersion))
}

func cmdFind(e *env, args []string, alsoResolve bool) error {
	fs := flag.NewFlagSet("find", flag.ExitOnError)
	hnsAddr := fs.String("hns", "127.0.0.1:5310", "hnsd address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	want := 3
	if alsoResolve {
		want = 2
	}
	if len(rest) != want {
		return fmt.Errorf("want %d positional args, got %d", want, len(rest))
	}
	qc := qclass.HostAddress
	if !alsoResolve {
		qc = rest[2]
	}
	name, err := names.New(rest[0], rest[1])
	if err != nil {
		return err
	}
	finder := core.NewRemoteHNS(e.rpc,
		hrpc.SuiteRawNet.Bind(*hnsAddr, *hnsAddr, core.HNSProgram, core.HNSVersion))
	ctx := context.Background()
	b, err := finder.FindNSM(ctx, name, qc)
	if err != nil {
		return err
	}
	fmt.Printf("NSM binding: %s\n", b)
	if !alsoResolve {
		return nil
	}
	addr, err := nsm.CallResolveHost(ctx, e.rpc, b, name)
	if err != nil {
		return err
	}
	fmt.Printf("%s -> %s\n", name, addr)
	return nil
}

func cmdLookup(e *env, args []string) error {
	fs := flag.NewFlagSet("lookup", flag.ExitOnError)
	server := fs.String("server", "127.0.0.1:5302", "BIND standard-interface UDP address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) != 2 {
		return fmt.Errorf("want <name> <type>")
	}
	t, err := bind.ParseRRType(rest[1])
	if err != nil {
		return err
	}
	std := bind.NewStdClient(e.net, "udp-net", *server)
	defer std.Close()
	rrs, err := std.Lookup(context.Background(), rest[0], t)
	if err != nil {
		return err
	}
	for _, rr := range rrs {
		fmt.Println(rr)
	}
	return nil
}

// cmdRegisterPair registers the one meta record two positional arguments
// build: a name service and its type, or a context and its name service.
func cmdRegisterPair(e *env, args []string, cmd, want string, record func(zone, a, b string) (bind.RR, error)) error {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	meta := fs.String("meta", "127.0.0.1:5301", "meta-BIND HRPC address")
	zone := fs.String("zone", "hns", "meta zone")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) != 2 {
		return fmt.Errorf("want %s", want)
	}
	rr, err := record(*zone, rest[0], rest[1])
	if err != nil {
		return err
	}
	return addRecords(e, *meta, *zone, rr)
}

func cmdRegisterNSM(e *env, args []string) error {
	fs := flag.NewFlagSet("register-nsm", flag.ExitOnError)
	meta := fs.String("meta", "127.0.0.1:5301", "meta-BIND HRPC address")
	zone := fs.String("zone", "hns", "meta zone")
	name := fs.String("name", "", "NSM name")
	ns := fs.String("ns", "", "name service")
	qc := fs.String("qclass", "", "query class")
	nsmHost := fs.String("nsm-host", "", "host the NSM runs on (individual name)")
	hostctx := fs.String("hostctx", "", "context resolving that host")
	port := fs.String("port", "", "NSM endpoint port/suffix on the host")
	suite := fs.String("suite", "udp-net,xdr,sunrpc", "transport,datarep,control")
	if err := fs.Parse(args); err != nil {
		return err
	}
	parts := strings.Split(*suite, ",")
	if len(parts) != 3 {
		return fmt.Errorf("-suite wants transport,datarep,control")
	}
	rrs, err := core.NSMRecords(*zone, core.NSMInfo{
		Name: *name, NameService: *ns, QueryClass: *qc,
		Host: *nsmHost, HostContext: *hostctx, Port: *port,
		Suite: hrpc.Suite{Transport: parts[0], DataRep: parts[1], Control: parts[2]},
	})
	if err != nil {
		return err
	}
	return addRecords(e, *meta, *zone, rrs...)
}

// addRecords adds rrs to the meta zone as one transaction.
func addRecords(e *env, metaAddr, zone string, rrs ...bind.RR) error {
	serial, err := e.metaClient(metaAddr).Apply(context.Background(), zone, bind.Adds(rrs...))
	if err != nil {
		return err
	}
	fmt.Printf("added %d records (zone serial %d)\n", len(rrs), serial)
	return nil
}

// cmdUnregister removes a context mapping or an NSM's records, an NSM's
// mapping and record set in one transaction: both go, or neither does.
func cmdUnregister(e *env, args []string, kind string) error {
	fs := flag.NewFlagSet("unregister-"+kind, flag.ExitOnError)
	meta := fs.String("meta", "127.0.0.1:5301", "meta-BIND HRPC address")
	zone := fs.String("zone", "hns", "meta zone")
	ns := fs.String("ns", "", "name service (unregister-nsm)")
	qc := fs.String("qclass", "", "query class (unregister-nsm)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) != 1 {
		return fmt.Errorf("want one positional argument (the %s name)", kind)
	}
	owners := []string{rest[0] + ".ctx." + *zone}
	if kind == "nsm" {
		if *ns == "" || *qc == "" {
			return fmt.Errorf("unregister-nsm needs -ns and -qclass")
		}
		owners = []string{*qc + "." + *ns + ".qc." + *zone, rest[0] + ".nsm." + *zone}
	}
	serial, err := e.metaClient(*meta).Apply(context.Background(), *zone,
		bind.Removes(bind.TypeHNSMeta, owners...))
	if err != nil {
		return err
	}
	fmt.Printf("removed %s (zone serial %d)\n", strings.Join(owners, ", "), serial)
	return nil
}

func cmdDump(e *env, args []string) error {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	meta := fs.String("meta", "127.0.0.1:5301", "meta-BIND HRPC address")
	zone := fs.String("zone", "hns", "meta zone")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mc := e.metaClient(*meta)
	serial, rrs, err := mc.Transfer(context.Background(), *zone)
	if err != nil {
		return err
	}
	fmt.Printf("; zone %s serial %d (%d records)\n", *zone, serial, len(rrs))
	fmt.Print(bind.FormatZoneFile(rrs))
	return nil
}
