package cover

// addCounts adds src's hit counts into dst and returns how many of its
// units were new to dst.
func addCounts[K comparable](dst, src map[K]int) int {
	fresh := 0
	for k, n := range src {
		if dst[k] == 0 {
			fresh++
		}
		dst[k] += n
	}
	return fresh
}

// addEach adds one hit for each of src's units, which are distinct, into
// dst and returns how many of them were new to dst.
func addEach[K comparable](dst map[K]int, src []K) int {
	fresh := 0
	for _, k := range src {
		if dst[k] == 0 {
			fresh++
		}
		dst[k]++
	}
	return fresh
}
