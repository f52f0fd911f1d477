package analysis

// SCCs returns the strongly connected components of the graph on
// vertices 0..len(adj)-1 (Tarjan's algorithm, iterative), in the order
// Tarjan emits them: reverse topological, so every component appears
// after every component it reaches. Roots are tried in vertex order and
// successors in adj order, so the result is deterministic.
func SCCs(adj [][]int) [][]int {
	n := len(adj)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var comps [][]int
	next := 0
	visit := func(v int) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
	}

	// A frame is one vertex of the DFS path plus the position of its
	// next successor to explore.
	type frame struct{ v, ei int }
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		visit(root)
		path := []frame{{root, 0}}
		for len(path) > 0 {
			f := &path[len(path)-1]
			v := f.v
			if f.ei < len(adj[v]) {
				w := adj[v][f.ei]
				f.ei++
				if index[w] == -1 {
					visit(w)
					path = append(path, frame{w, 0})
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			path = path[:len(path)-1]
			if len(path) > 0 {
				if p := path[len(path)-1].v; low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				comps = append(comps, comp)
			}
		}
	}
	return comps
}
