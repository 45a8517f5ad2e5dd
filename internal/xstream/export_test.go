package xstream

// freeScratch is a snapshot of the scratch free-list.
func freeScratch() []*Scratch {
	scratchList.Lock()
	defer scratchList.Unlock()
	return append([]*Scratch(nil), scratchList.free...)
}

// DropFreeScratch empties the scratch free-list, so the next run starts on
// an empty scratch.
func DropFreeScratch() {
	scratchList.Lock()
	scratchList.free = nil
	scratchList.Unlock()
}
