// Gpardclient demonstrates the gpard serving subsystem end to end, in one
// process: it generates a Pokec-like social graph, mines a diversified
// top-k rule set with DMine, starts the serve.Server on a local listener,
// and then drives the HTTP API the way a marketing backend would — many
// concurrent identify calls for the same rules (served from the match-set
// cache after the first execution), an async re-mine job that hot-swaps
// the rule set, and the /stats counters that make the cache and batcher
// behaviour observable.
//
// Run with: go run ./examples/gpardclient
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"time"

	"gpar/internal/core"
	"gpar/internal/gen"
	"gpar/internal/graph"
	"gpar/internal/mine"
	"gpar/internal/serve"
)

func main() {
	// 1. Mine once.
	syms := graph.NewSymbols()
	g := gen.Pokec(syms, gen.DefaultPokec(1500, 7))
	pred := core.Predicate{
		XLabel:    syms.Intern("user"),
		EdgeLabel: syms.Intern("like_music"),
		YLabel:    syms.Intern("music:Disco"),
	}
	fmt.Printf("graph: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())
	res := mine.DMine(g, pred, mine.Options{
		K: 6, Sigma: 10, D: 2, Lambda: 0.5, N: 4, MaxEdges: 2,
		MaxCandidatesPerRound: 60,
	})
	var rules []*core.Rule
	for _, mm := range res.TopK {
		rules = append(rules, mm.Rule)
	}
	fmt.Printf("mined %d rules (F=%.4f)\n", len(rules), res.F)

	// 2. Serve many.
	srv := serve.New(serve.Config{Workers: 4})
	if err := srv.LoadSnapshot(g, pred, rules); err != nil {
		panic(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fmt.Printf("serving generation %d at %s\n\n", srv.Generation(), ts.URL)

	// Browse the resident rule set.
	var ruleList struct {
		Rules []struct {
			Key  string `json:"key"`
			Rule string `json:"rule"`
		} `json:"rules"`
	}
	getJSON(ts.URL+"/v1/rules", &ruleList)
	for i, r := range ruleList.Rules {
		fmt.Printf("rule %d [%s]: %s\n", i, r.Key[:8], r.Rule)
	}

	// 3. A stampede of identical queries: the first executes, the rest are
	// answered by the batcher and then the match-set cache.
	body := []byte(`{"eta": 1.2}`)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/identify", "application/json", bytes.NewReader(body))
			if err != nil {
				panic(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	wg.Wait()
	fmt.Printf("\n32 concurrent identify calls in %s\n", time.Since(start).Round(time.Millisecond))

	var identified struct {
		Count int `json:"count"`
		Rules []struct {
			Conf    any  `json:"conf"`
			Applied bool `json:"applied"`
			Matches int  `json:"matches"`
			Cached  bool `json:"cached"`
		} `json:"rules"`
	}
	postJSON(ts.URL+"/v1/identify", body, &identified)
	fmt.Printf("identified %d potential customers; first rule: conf=%v matches=%d cached=%v\n",
		identified.Count, identified.Rules[0].Conf, identified.Rules[0].Matches, identified.Rules[0].Cached)

	stats := getStats(ts.URL)
	fmt.Printf("cache: %v, batch: %v\n", stats["cache"], stats["batch"])

	// 4. Re-mine asynchronously for a different predicate and hot-swap.
	var job struct {
		ID string `json:"id"`
	}
	postJSON(ts.URL+"/v1/mine", []byte(`{
		"xLabel":"user","edgeLabel":"like_book","yLabel":"book:personal development",
		"k":4,"sigma":10,"maxEdges":2,"cap":60,"install":true}`), &job)
	fmt.Printf("\nmine job %s started\n", job.ID)
	for {
		var st struct {
			Status     string `json:"status"`
			Kept       int    `json:"kept"`
			Generation uint64 `json:"generation"`
			Error      string `json:"error"`
		}
		getJSON(ts.URL+"/v1/jobs/"+job.ID, &st)
		if st.Status == "done" || st.Status == "failed" {
			fmt.Printf("job %s: %s (kept %d, generation now %d) %s\n",
				job.ID, st.Status, st.Kept, st.Generation, st.Error)
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The swap invalidated the cache: the next identify misses and
	// re-executes against the new rule set.
	postJSON(ts.URL+"/v1/identify", body, &identified)
	fmt.Printf("after swap: identified %d for the new predicate (cached=%v)\n",
		identified.Count, identified.Rules[0].Cached)
	stats = getStats(ts.URL)
	fmt.Printf("cache after swap: %v\n", stats["cache"])

	// 5. Durability: with a data directory, ingest survives a crash. The
	// server checkpoints its snapshot on every swap and appends each delta
	// batch to a write-ahead log before acknowledging it, so a restart
	// recovers the exact pre-crash generation — no re-ingest, identical
	// answers. (The daemon exposes the same thing as gpard -data-dir.)
	dataDir, err := os.MkdirTemp("", "gpard-data-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dataDir)
	dur := serve.New(serve.Config{Workers: 4})
	if err := dur.EnablePersistence(serve.PersistOptions{Dir: dataDir}); err != nil {
		panic(err)
	}
	if err := dur.LoadSnapshot(g, pred, rules); err != nil {
		panic(err)
	}
	ds := httptest.NewServer(dur.Handler())
	fmt.Printf("\ndurable server at generation %d, data dir %s\n", dur.Generation(), dataDir)
	for i := 0; i < 3; i++ {
		var dr struct {
			Generation uint64 `json:"generation"`
		}
		postJSON(ds.URL+"/v1/graph/delta",
			[]byte(`{"ops":[{"op":"addNode","label":"user"}]}`), &dr)
		fmt.Printf("delta batch accepted: generation %d (logged before acknowledged)\n", dr.Generation)
	}
	type answer struct {
		Generation uint64  `json:"generation"`
		Count      int     `json:"count"`
		Identified []int32 `json:"identified"`
	}
	var before answer
	postJSON(ds.URL+"/v1/identify", body, &before)
	ds.Close() // the process "dies" here: no shutdown, no goodbye

	restart := time.Now()
	dur2 := serve.New(serve.Config{Workers: 4})
	if err := dur2.EnablePersistence(serve.PersistOptions{Dir: dataDir}); err != nil {
		panic(err)
	}
	rep, err := dur2.Recover()
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nrestarted in %s: snapshot %s + %d WAL records replayed → generation %d\n",
		time.Since(restart).Round(time.Millisecond), rep.Snapshot, rep.Replayed, dur2.Generation())
	ds2 := httptest.NewServer(dur2.Handler())
	defer ds2.Close()
	var after answer
	postJSON(ds2.URL+"/v1/identify", body, &after)
	if after.Generation != before.Generation || after.Count != before.Count ||
		!reflect.DeepEqual(after.Identified, before.Identified) {
		panic(fmt.Sprintf("recovered answers differ: %+v vs %+v", before, after))
	}
	fmt.Printf("pre-crash and post-restart identify answers are identical (%d identified at generation %d) — nothing re-ingested\n",
		after.Count, after.Generation)
}

func getJSON(url string, v any) {
	resp, err := http.Get(url)
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		panic(err)
	}
}

func postJSON(url string, body []byte, v any) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		panic(err)
	}
}

func getStats(base string) map[string]any {
	var stats map[string]any
	getJSON(base+"/stats", &stats)
	return stats
}
