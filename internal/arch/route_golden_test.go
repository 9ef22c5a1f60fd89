package arch

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"
)

// routesGoldenPath holds one "name digest" line per static backend
// configuration: the SHA-256 of every installed route of its built fabric.
const routesGoldenPath = "testdata/static_routes_golden.txt"

// TestStaticRoutesGolden pins the routing table of every static backend's
// Build at 16, 32 and 128 servers and degree 4 and 8. Shortest-path
// routes tie often, so a moved digest is usually a changed BFS tie-break.
func TestStaticRoutesGolden(t *testing.T) {
	f, err := os.Open(routesGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, digest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", routesGoldenPath, sc.Text())
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	configs := 0
	for _, name := range []string{"IdealSwitch", "Fat-tree", "OversubFatTree", "Expander", "Torus", "SiP-Ring"} {
		b, ok := Lookup(name)
		if !ok {
			t.Fatalf("no backend %q", name)
		}
		for _, servers := range []int{16, 32, 128} {
			for _, degree := range []int{4, 8} {
				configs++
				key := fmt.Sprintf("%s/n%d/d%d", name, servers, degree)
				h := sha256.New()
				fab, err := b.Build(Options{Servers: servers, Degree: degree, LinkBW: 100e9, Seed: 1})
				if err != nil {
					fmt.Fprintf(h, "error %v\n", err)
				} else {
					n := fab.Routes.N()
					for s := 0; s < n; s++ {
						for d := 0; d < n; d++ {
							fmt.Fprintf(h, "r %d %d %v\n", s, d, fab.Routes.Get(s, d))
						}
					}
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != want[key] {
					t.Errorf("%s: digest %s, want %q", key, got, want[key])
				}
			}
		}
	}
	if configs != len(want) {
		t.Errorf("%d configurations, %s has %d", configs, routesGoldenPath, len(want))
	}
}
