// GeoInd-preserving Hierarchical Index (GIHI, paper Section 4): a uniform
// hierarchical grid with fanout g x g at every level. Level i partitions the
// domain into g^i x g^i cells; nodes are implicit (pure index arithmetic),
// so the structure costs O(1) memory regardless of height.

#ifndef GEOPRIV_SPATIAL_HIERARCHICAL_GRID_H_
#define GEOPRIV_SPATIAL_HIERARCHICAL_GRID_H_

#include <vector>

#include "base/status.h"
#include "spatial/hierarchical_partition.h"

namespace geopriv::spatial {

class HierarchicalGrid final : public HierarchicalPartition {
 public:
  // `granularity` = g (fanout g^2 per node), `height` = number of levels
  // below the root. Requires g >= 2, height >= 1, and a positive-area
  // domain.
  static StatusOr<HierarchicalGrid> Create(geo::BBox domain, int granularity,
                                           int height);

  int height() const override { return height_; }
  int granularity() const { return g_; }

  geo::BBox Bounds(NodeIndex node) const override;
  bool IsLeaf(NodeIndex node) const override;
  std::vector<ChildInfo> Children(NodeIndex node) const override;
  double TypicalCellSide(int level) const override;

  // Depth of a node (root = 0). `node` must be in [0, num_nodes()).
  int LevelOf(NodeIndex node) const;
  NodeIndex num_nodes() const { return offset_[height_ + 1]; }

  // The node at `level` whose cell contains `p` (clamped to the domain).
  NodeIndex NodeAt(int level, geo::Point p) const;

  // Number of cells along one axis at `level` (= g^level).
  int64_t SideCells(int level) const { return side_[level]; }

 private:
  HierarchicalGrid(geo::BBox domain, int granularity, int height);

  geo::BBox domain_;
  int g_;
  int height_;
  std::vector<int64_t> side_;    // g^level per level
  std::vector<int64_t> offset_;  // first NodeIndex of each level
};

}  // namespace geopriv::spatial

#endif  // GEOPRIV_SPATIAL_HIERARCHICAL_GRID_H_
