package serve

import "fastbfs/internal/xstream"

// PreparedOf lets the external tests checksum the shared edge list.
func PreparedOf(s *GraphService) *xstream.PreparedGraph { return s.prepared }
