// Discovery demonstrates the P-GMA indexing layer (§2.2): a small fleet
// of real UDP peers registers its resources in MAAN and answers
// multi-attribute range queries — "find hosts with at least 2 GHz CPUs,
// 2-4 GB of memory, and under 50% load". A peer's first query into an
// owner's arc pays a Chord lookup; later ones start at the owner it
// proved (DESIGN.md §11, "A walk starts from a proved owner arc").
package main

import (
	"fmt"
	"log"
	"time"

	dat "repro"
)

func main() {
	attrs := []dat.Attribute{
		{Name: "cpu-speed", Min: 0, Max: 5},      // GHz
		{Name: "memory-size", Min: 0, Max: 8192}, // MB
		{Name: "cpu-usage", Min: 0, Max: 100},    // percent
		{Name: "os-name", Kind: dat.String},      // exact-match attribute
	}
	type host struct {
		name            string
		speed, mem, cpu float64
		os              string
	}
	fleet := []host{
		{"node-a", 1.6, 1024, 20, "linux"},
		{"node-b", 2.4, 2048, 35, "linux"},
		{"node-c", 2.8, 4096, 90, "linux"},
		{"node-d", 3.0, 2048, 45, "freebsd"},
		{"node-e", 3.2, 8192, 10, "linux"},
		{"node-f", 2.0, 512, 60, "freebsd"},
	}

	var peers []*dat.Peer
	for i, h := range fleet {
		h := h
		p, err := dat.NewPeer(dat.PeerConfig{
			Listen:     "127.0.0.1:0",
			Name:       h.name,
			Attributes: attrs,
			Stabilize:  50 * time.Millisecond,
			FixFingers: 80 * time.Millisecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer p.Close()
		p.AddSensor("cpu-speed", func() (float64, bool) { return h.speed, true })
		p.AddSensor("memory-size", func() (float64, bool) { return h.mem, true })
		p.AddSensor("cpu-usage", func() (float64, bool) { return h.cpu, true })
		p.SetLabel("os-name", h.os)
		if i == 0 {
			p.Create()
		} else if err := p.JoinProbed(peers[0].Addr()); err != nil {
			log.Fatal(err)
		}
		if err := p.Announce(500 * time.Millisecond); err != nil {
			log.Fatal(err)
		}
		peers = append(peers, p)
	}

	// Let the overlay converge and the registrations land.
	time.Sleep(2 * time.Second)

	query := []dat.Predicate{
		dat.Range("cpu-speed", 2.0, 5.0),
		dat.Range("memory-size", 2048, 4096),
		dat.Range("cpu-usage", 0, 50),
	}
	fmt.Println("query: cpu-speed in [2,5] GHz, memory in [2,4] GB, usage <= 50%")
	found, err := peers[3].FindResources(query)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range found {
		fmt.Printf("  %-8s speed=%.1fGHz mem=%.0fMB usage=%.0f%% os=%s\n",
			r.Name, r.Values["cpu-speed"], r.Values["memory-size"], r.Values["cpu-usage"],
			r.Strings["os-name"])
	}
	// Expected: node-b (2.4GHz/2GB/35%) and node-d (3.0GHz/2GB/45%).

	// Mixed query with an exact-match label: linux hosts under 50% load.
	fmt.Println("\nquery: os-name == linux AND cpu-usage <= 50%")
	found, err = peers[1].FindResources([]dat.Predicate{
		dat.Eq("os-name", "linux"),
		dat.Range("cpu-usage", 0, 50),
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range found {
		fmt.Printf("  %-8s usage=%.0f%% os=%s\n", r.Name, r.Values["cpu-usage"], r.Strings["os-name"])
	}
	// Expected: node-a, node-b, node-e.
}
