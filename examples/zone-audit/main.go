// Zone-audit plays the auditor (or attacker) against an operator who made
// two mistakes at once: carry-over of DHCP Host Names into reverse DNS,
// and open AXFR zone transfers. One TCP query dumps the whole zone; the
// Section 5 analysis then reads the device inventory out of it — no
// address scanning required. The operator then closes transfers, and the
// auditor falls back to a sharded parallel PTR sweep through the snapshot
// engine — same inventory, just more queries: closing AXFR alone does not
// stop enumeration.
//
//	go run ./examples/zone-audit
//
// Everything runs on loopback sockets: a real DNS server, a real transfer,
// a real sweep, a real analysis.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"rdnsprivacy/internal/dhcp"
	"rdnsprivacy/internal/dhcpwire"
	"rdnsprivacy/internal/dnsclient"
	"rdnsprivacy/internal/dnsserver"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/ipam"
	"rdnsprivacy/internal/names"
	"rdnsprivacy/internal/privleak"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/simclock"
)

func main() {
	// ── The operator's side ────────────────────────────────────────
	prefix := dnswire.MustPrefix("10.77.0.0/24")
	origin, err := dnswire.ReverseZoneFor24(prefix)
	if err != nil {
		log.Fatal(err)
	}
	zone := dnsserver.NewZone(dnsserver.ZoneConfig{
		Origin:    origin,
		PrimaryNS: dnswire.MustName("ns1.corp-z.com"),
		Mbox:      dnswire.MustName("hostmaster.corp-z.com"),
	})
	srv := dnsserver.NewServer()
	srv.AddZone(zone)
	srv.SetTransferPolicy(true) // mistake #2: transfers open
	updater := ipam.NewUpdater(ipam.Config{
		Policy: ipam.PolicyCarryOver, // mistake #1: carry-over
		Suffix: dnswire.MustName("dyn.corp-z.com"),
	})
	if err := updater.AttachZone(zone); err != nil {
		log.Fatal(err)
	}
	dhcpSrv := dhcp.NewServer(simclock.Real{}, dhcp.ServerConfig{
		ServerIP:  prefix.Nth(1),
		Pools:     []dnswire.Prefix{prefix},
		LeaseTime: time.Hour,
		Sink:      updater,
	})
	// A morning's worth of employees join.
	for i, owner := range []string{"jacob", "emma", "olivia", "noah", "mia",
		"liam", "sophia", "lucas", "ava", "ethan", "brian"} {
		kind := "s-iPhone"
		if i%3 == 1 {
			kind = "s-MacBook-Pro"
		}
		if i%3 == 2 {
			kind = "s-Galaxy-S10"
		}
		cl := dhcp.NewClient(simclock.Real{}, dhcpSrv, dhcp.ClientConfig{
			CHAddr:   dhcpwire.HardwareAddr{2, 0, 0, 0, 0, byte(i + 1)},
			HostName: owner + kind,
		})
		if _, err := cl.Join(); err != nil {
			log.Fatal(err)
		}
	}

	udpConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer udpConn.Close()
	go srv.Serve(udpConn)
	addr := udpConn.LocalAddr().String()
	tcpLn, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	defer tcpLn.Close()
	go srv.ServeTCP(tcpLn)
	fmt.Printf("operator: authoritative DNS for %s on %s (AXFR open)\n\n", origin, addr)

	// ── The auditor's side: one query, whole zone ──────────────────
	client := &dnsclient.UDPClient{Server: addr, Timeout: 3 * time.Second}
	defer client.Close()
	records, err := client.TransferZone(origin)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("auditor: AXFR returned %d records in a single TCP query\n\n", len(records))

	// Feed the transfer straight into the Section 5 analysis.
	res := analyze(func(observe func(dnswire.IPv4, dnswire.Name)) {
		for _, rr := range records {
			ptr, ok := rr.Data.(dnswire.PTRData)
			if !ok {
				continue
			}
			ip, err := dnswire.ParseReverseName(rr.Name)
			if err != nil {
				continue
			}
			observe(ip, ptr.Target)
		}
	})
	printFindings("via AXFR", res)

	// ── The operator closes transfers; the auditor sweeps instead ──
	srv.SetTransferPolicy(false)
	if _, err := client.TransferZone(origin); err == nil {
		log.Fatal("transfer still open after SetTransferPolicy(false)")
	}
	fmt.Println("\noperator: transfers closed; auditor falls back to scanning")

	sc := scanengine.New(dnsclient.UDPSource{Client: client}, scanengine.WithWorkers(8))
	snap, err := sc.Scan(context.Background(), scanengine.Request{
		Targets: []dnswire.Prefix{prefix},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("auditor: sharded PTR sweep covered %d addresses in %s: %d records\n\n",
		snap.Stats.Probes, snap.Elapsed.Round(time.Millisecond), snap.Blocks.Len())
	res = analyze(func(observe func(dnswire.IPv4, dnswire.Name)) {
		for _, b := range snap.Blocks {
			ip := b.Prefix.Addr
			for _, e := range b.Entries {
				ip[3] = e.Octet
				observe(ip, e.Name)
			}
		}
	})
	printFindings("via PTR sweep", res)

	fmt.Println("\nremediation, in order of impact:")
	fmt.Println("  1. stop carrying DHCP Host Names into PTR records (policy: hashed or static-form)")
	fmt.Println("  2. close zone transfers (SetTransferPolicy(false) / allow-transfer {...})")
	fmt.Println("  3. shorten record lifetimes so lingering after departure shrinks")
}

// analyze runs the Section 5 analyzer over a set of (ip, hostname)
// observations.
func analyze(emit func(observe func(dnswire.IPv4, dnswire.Name))) *privleak.Result {
	a := privleak.NewAnalyzer(privleak.Config{
		MinUniqueNames: 5, MinRatio: 0.1,
		GivenNames: append(append([]string{}, names.Top50...), names.Extra...),
	})
	emit(func(ip dnswire.IPv4, name dnswire.Name) {
		a.Observe(privleak.RecordObservation{IP: ip, HostName: name, Dynamic: true})
	})
	return a.Finish()
}

func printFindings(how string, res *privleak.Result) {
	for _, rep := range res.Identified {
		fmt.Printf("finding (%s): suffix %s leaks %d distinct given names over %d records (ratio %.2f)\n",
			how, rep.Suffix, rep.UniqueNames, rep.Records, rep.Ratio())
		fmt.Printf("         device terms seen: ")
		for term, c := range rep.DeviceTermCounts {
			fmt.Printf("%s(%d) ", term, c)
		}
		fmt.Println()
	}
}
