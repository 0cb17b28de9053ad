package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"

	"lcws"
	"lcws/parlay"
	"lcws/pbbs"
	"lcws/workload"
)

// kernel is one timed job kind: a name for metrics and logs, and a
// constructor that returns a fresh root and the check of its result.
// Each call gets its own result storage, so a job still running on an
// abandoned pool cannot overwrite a later job's result.
type kernel struct {
	name  string
	class lcws.JobClass
	job   func() (root func(*lcws.Ctx), check func() error)
}

// inputSeed derives the generator seed of one input from the run's seed.
func inputSeed(seed uint64, input uint64) uint64 {
	return rand.New(rand.NewPCG(seed, input)).Uint64()
}

// pbbsKernels builds the named workload's PBBS kernels at scale 1 on
// inputs generated from seed, with the references their checks need.
// Sizes match the pbbs.Suite instances of the same names.
func pbbsKernels(workloadName string, seed uint64, spans *recorder) []kernel {
	gen := func(name string, f func()) {
		sp := spans.begin("workload.gen:"+name, 0, -1)
		f()
		spans.end(sp)
	}
	var ks []kernel
	switch workloadName {
	case "pbbs-fork":
		var local, grid, rmat *workload.Graph
		var hull []workload.Point2
		gen("randLocalGraph", func() { local = workload.RandLocalGraph(inputSeed(seed, 1), 30_000, 8) })
		gen("3Dgrid", func() { grid = workload.GridGraph3D(22) })
		gen("rMatGraph", func() { rmat = workload.RMatGraph(inputSeed(seed, 3), 13, 120_000) })
		gen("2DonSphere", func() { hull = workload.OnSphere2D(inputSeed(seed, 4), 25_000) })
		ks = []kernel{
			bfsKernel("breadthFirstSearch/randLocalGraph", local, seed, 11, pbbs.BFS, spans),
			bfsKernel("breadthFirstSearch/3Dgrid", grid, seed, 12, pbbs.BFS, spans),
			bfsKernel("breadthFirstSearch/rMatGraph", rmat, seed, 13, pbbs.BFS, spans),
			bfsKernel("backForwardBFS/3Dgrid", grid, seed, 14, pbbs.BackForwardBFS, spans),
			hullKernel("convexHull/2DonSphere", hull, spans),
		}
	case "pbbs-coarse":
		var doubles []float64
		var bodies []workload.Point3
		var wedges []workload.WeightedEdge
		var keys []int
		var text string
		gen("randomSeq_double", func() { doubles = workload.RandomDoubles(inputSeed(seed, 21), 100_000) })
		gen("3Dplummer", func() { bodies = workload.PlummerBodies(inputSeed(seed, 22), 1_500) })
		gen("randLocalGraph", func() {
			s := inputSeed(seed, 23)
			wedges = workload.WeightedEdges(s, workload.RandLocalEdges(s, 30_000, 8))
		})
		gen("randomSeq_100K_int", func() {
			raw := workload.RandomSeq(inputSeed(seed, 24), 200_000, 100_000)
			keys = make([]int, len(raw))
			for i, v := range raw {
				keys[i] = int(v)
			}
		})
		gen("trigramSeq", func() { text = workload.TrigramWords(inputSeed(seed, 25), 60_000) })
		ks = []kernel{
			sortKernel("comparisonSort/randomSeq_double", doubles, spans),
			nbodyKernel("nBody/3Dplummer", bodies, spans),
			msfKernel("minSpanningForest/randLocalGraph", 30_000, wedges, spans),
			histogramKernel("histogram/randomSeq_100K_int", keys, 100_000, spans),
			wordCountsKernel("wordCounts/trigramSeq", text, spans),
		}
	default:
		panic("unknown pbbs workload " + workloadName)
	}
	for i := range ks {
		// The closed loop is one client waiting on each reply: the
		// latency class.
		ks[i].class = lcws.High
	}
	return ks
}

// reference times the sequential reference computation of one kernel.
func reference(spans *recorder, name string, f func()) {
	sp := spans.begin("pbbs.reference:"+name, 0, -1)
	f()
	spans.end(sp)
}

// bfsKernel searches g from a seeded source with a non-zero degree,
// checking the parent array against sequential BFS distances.
func bfsKernel(name string, g *workload.Graph, seed, input uint64, search func(*lcws.Ctx, *workload.Graph, int32) []int32, spans *recorder) kernel {
	n := g.NumVertices()
	src := int32(inputSeed(seed, input) % uint64(n))
	for g.Degree(src) == 0 {
		src = (src + 1) % int32(n)
	}
	var dist []int32
	reference(spans, name, func() { dist = bfsDistances(g, src) })
	return kernel{name: name, job: func() (func(*lcws.Ctx), func() error) {
		var got []int32
		return func(ctx *lcws.Ctx) { got = search(ctx, g, src) },
			func() error { return checkBFSTree(g, src, dist, got) }
	}}
}

func bfsDistances(g *workload.Graph, src int32) []int32 {
	dist := make([]int32, g.NumVertices())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int32{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if dist[u] == -1 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// checkBFSTree accepts a parent array whose reachability matches dist
// and whose every parent is a neighbour exactly one level closer.
func checkBFSTree(g *workload.Graph, src int32, dist, got []int32) error {
	if len(got) != len(dist) {
		return fmt.Errorf("parent array has %d entries, want %d", len(got), len(dist))
	}
	for v := range got {
		p := got[v]
		if (p == -1) != (dist[v] == -1) {
			return fmt.Errorf("vertex %d: reachability mismatch", v)
		}
		if p == -1 || int32(v) == src {
			continue
		}
		if dist[v] != dist[p]+1 {
			return fmt.Errorf("vertex %d: parent %d not one level up", v, p)
		}
		found := false
		for _, u := range g.Neighbors(p) {
			if u == int32(v) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("parent edge %d->%d not in graph", p, v)
		}
	}
	return nil
}

func orient(a, b, c workload.Point2) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// strictHull is Andrew's monotone chain: the hull's strict corners.
func strictHull(pts []workload.Point2) []int32 {
	idx := make([]int32, len(pts))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(a, b int) bool {
		p, q := pts[idx[a]], pts[idx[b]]
		return p.X < q.X || (p.X == q.X && p.Y < q.Y)
	})
	var h []int32
	for pass := 0; pass < 2; pass++ {
		start := len(h)
		for _, i := range idx {
			for len(h) >= start+2 && orient(pts[h[len(h)-2]], pts[h[len(h)-1]], pts[i]) <= 0 {
				h = h[:len(h)-1]
			}
			h = append(h, i)
		}
		h = h[:len(h)-1]
		for l, r := 0, len(idx)-1; l < r; l, r = l+1, r-1 {
			idx[l], idx[r] = idx[r], idx[l]
		}
	}
	return h
}

// hullKernel checks that every strict corner is reported and every
// other reported point lies on a hull edge (collinear ties may go
// either way).
func hullKernel(name string, pts []workload.Point2, spans *recorder) kernel {
	var corners []int32
	var isCorner []bool
	reference(spans, name, func() {
		corners = strictHull(pts)
		isCorner = make([]bool, len(pts))
		for _, i := range corners {
			isCorner[i] = true
		}
	})
	return kernel{name: name, job: func() (func(*lcws.Ctx), func() error) {
		var got []int32
		return func(ctx *lcws.Ctx) { got = pbbs.ConvexHull(ctx, pts) },
			func() error {
				seen := make(map[int32]bool, len(got))
				for _, p := range got {
					seen[p] = true
					if isCorner[p] {
						continue
					}
					on := false
					for k := range corners {
						a, b := pts[corners[k]], pts[corners[(k+1)%len(corners)]]
						if orient(a, b, pts[p]) == 0 {
							on = true
							break
						}
					}
					if !on {
						return fmt.Errorf("point %d reported but not on the hull", p)
					}
				}
				for _, c := range corners {
					if !seen[c] {
						return fmt.Errorf("hull corner %d missing", c)
					}
				}
				return nil
			}
	}}
}

func sortKernel(name string, input []float64, spans *recorder) kernel {
	var want []float64
	reference(spans, name, func() {
		want = append([]float64(nil), input...)
		sort.Float64s(want)
	})
	return kernel{name: name, job: func() (func(*lcws.Ctx), func() error) {
		got := make([]float64, len(input))
		return func(ctx *lcws.Ctx) {
				copy(got, input)
				parlay.SampleSort(ctx, got)
			}, func() error {
				for i := range want {
					if got[i] != want[i] {
						return fmt.Errorf("position %d: %v, want %v", i, got[i], want[i])
					}
				}
				return nil
			}
	}}
}

// nbodyAccel is the direct-sum acceleration on body i, the same
// softened inverse-square law pbbs.NBodyForces computes.
func nbodyAccel(bodies []workload.Point3, i int) pbbs.Vec3 {
	const softening = 1e-6
	var a pbbs.Vec3
	bi := bodies[i]
	for j, bj := range bodies {
		if j == i {
			continue
		}
		dx, dy, dz := bj.X-bi.X, bj.Y-bi.Y, bj.Z-bi.Z
		r2 := dx*dx + dy*dy + dz*dz + softening
		inv := 1 / (r2 * math.Sqrt(r2))
		a.X += dx * inv
		a.Y += dy * inv
		a.Z += dz * inv
	}
	return a
}

func nbodyKernel(name string, bodies []workload.Point3, spans *recorder) kernel {
	var want []pbbs.Vec3
	reference(spans, name, func() {
		want = make([]pbbs.Vec3, len(bodies))
		for i := range bodies {
			want[i] = nbodyAccel(bodies, i)
		}
	})
	return kernel{name: name, job: func() (func(*lcws.Ctx), func() error) {
		var got []pbbs.Vec3
		return func(ctx *lcws.Ctx) { got = pbbs.NBodyForces(ctx, bodies) },
			func() error {
				if len(got) != len(want) {
					return fmt.Errorf("%d accelerations, want %d", len(got), len(want))
				}
				for i, w := range want {
					g := got[i]
					tol := 1e-9 * (math.Abs(w.X) + math.Abs(w.Y) + math.Abs(w.Z) + 1)
					if math.Abs(g.X-w.X) > tol || math.Abs(g.Y-w.Y) > tol || math.Abs(g.Z-w.Z) > tol {
						return fmt.Errorf("body %d: acceleration %v, want %v", i, g, w)
					}
				}
				return nil
			}
	}}
}

// msfKernel checks that the selected edges form an acyclic forest with
// as many edges and the same total weight as sequential Kruskal's.
func msfKernel(name string, n int, edges []workload.WeightedEdge, spans *recorder) kernel {
	var wantEdges int
	var wantWeight float64
	reference(spans, name, func() {
		order := make([]int, len(edges))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return edges[order[a]].W < edges[order[b]].W })
		uf := newUnionFind(n)
		for _, i := range order {
			if uf.union(edges[i].U, edges[i].V) {
				wantEdges++
				wantWeight += edges[i].W
			}
		}
	})
	return kernel{name: name, job: func() (func(*lcws.Ctx), func() error) {
		var got []int32
		return func(ctx *lcws.Ctx) { got = pbbs.MinSpanningForest(ctx, n, edges) },
			func() error {
				if len(got) != wantEdges {
					return fmt.Errorf("%d forest edges, want %d", len(got), wantEdges)
				}
				uf := newUnionFind(n)
				var w float64
				for _, i := range got {
					if !uf.union(edges[i].U, edges[i].V) {
						return fmt.Errorf("edge %d closes a cycle", i)
					}
					w += edges[i].W
				}
				if math.Abs(w-wantWeight) > 1e-9*math.Abs(wantWeight) {
					return fmt.Errorf("forest weight %v, want %v", w, wantWeight)
				}
				return nil
			}
	}}
}

type unionFind []int32

func newUnionFind(n int) unionFind {
	uf := make(unionFind, n)
	for i := range uf {
		uf[i] = int32(i)
	}
	return uf
}

func (uf unionFind) find(v int32) int32 {
	for uf[v] != v {
		uf[v] = uf[uf[v]]
		v = uf[v]
	}
	return v
}

// union joins u's and v's trees and reports whether they were apart.
func (uf unionFind) union(u, v int32) bool {
	ru, rv := uf.find(u), uf.find(v)
	if ru == rv {
		return false
	}
	uf[ru] = rv
	return true
}

func histogramKernel(name string, keys []int, buckets int, spans *recorder) kernel {
	var want []int
	reference(spans, name, func() {
		want = make([]int, buckets)
		for _, k := range keys {
			want[k]++
		}
	})
	return kernel{name: name, job: func() (func(*lcws.Ctx), func() error) {
		var got []int
		return func(ctx *lcws.Ctx) { got = parlay.Histogram(ctx, keys, buckets) },
			func() error {
				if len(got) != buckets {
					return fmt.Errorf("%d buckets, want %d", len(got), buckets)
				}
				for k := range want {
					if got[k] != want[k] {
						return fmt.Errorf("bucket %d: %d, want %d", k, got[k], want[k])
					}
				}
				return nil
			}
	}}
}

func wordCountsKernel(name string, text string, spans *recorder) kernel {
	var want []pbbs.WordCount
	reference(spans, name, func() {
		counts := map[string]int{}
		for _, w := range strings.Fields(text) {
			counts[w]++
		}
		for w, c := range counts {
			want = append(want, pbbs.WordCount{Word: w, Count: c})
		}
		sort.Slice(want, func(a, b int) bool { return want[a].Word < want[b].Word })
	})
	return kernel{name: name, job: func() (func(*lcws.Ctx), func() error) {
		var got []pbbs.WordCount
		return func(ctx *lcws.Ctx) { got = pbbs.WordCounts(ctx, text) },
			func() error {
				if len(got) != len(want) {
					return fmt.Errorf("%d distinct words, want %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						return fmt.Errorf("entry %d: %v, want %v", i, got[i], want[i])
					}
				}
				return nil
			}
	}}
}
