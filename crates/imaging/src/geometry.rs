//! Axis-aligned bounding boxes shared across the workspace.
//!
//! Boxes use `f32` coordinates because the crowdsourcing simulation jitters
//! them continuously, and the paper's *average* combination strategy
//! averages coordinates directly.

/// An axis-aligned bounding box with a top-left corner at `(x, y)` and
/// extent `(w, h)`, in pixel units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BBox {
    /// Left edge.
    pub x: f32,
    /// Top edge.
    pub y: f32,
    /// Width (non-negative).
    pub w: f32,
    /// Height (non-negative).
    pub h: f32,
}

impl BBox {
    /// Create a new box. Negative extents are clamped to zero.
    pub fn new(x: f32, y: f32, w: f32, h: f32) -> Self {
        Self {
            x,
            y,
            w: w.max(0.0),
            h: h.max(0.0),
        }
    }

    /// Create a box from corner coordinates (any ordering).
    pub fn from_corners(x0: f32, y0: f32, x1: f32, y1: f32) -> Self {
        let (lo_x, hi_x) = if x0 <= x1 { (x0, x1) } else { (x1, x0) };
        let (lo_y, hi_y) = if y0 <= y1 { (y0, y1) } else { (y1, y0) };
        Self::new(lo_x, lo_y, hi_x - lo_x, hi_y - lo_y)
    }

    /// Right edge (`x + w`).
    #[inline]
    pub fn x1(&self) -> f32 {
        self.x + self.w
    }

    /// Bottom edge (`y + h`).
    #[inline]
    pub fn y1(&self) -> f32 {
        self.y + self.h
    }

    /// Box area.
    #[inline]
    pub fn area(&self) -> f32 {
        self.w * self.h
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> (f32, f32) {
        (self.x + self.w * 0.5, self.y + self.h * 0.5)
    }

    /// True if the box has zero area.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.w <= 0.0 || self.h <= 0.0
    }

    /// Intersection box, or `None` when disjoint.
    pub fn intersection(&self, other: &BBox) -> Option<BBox> {
        let x0 = self.x.max(other.x);
        let y0 = self.y.max(other.y);
        let x1 = self.x1().min(other.x1());
        let y1 = self.y1().min(other.y1());
        if x1 > x0 && y1 > y0 {
            Some(BBox::new(x0, y0, x1 - x0, y1 - y0))
        } else {
            None
        }
    }

    /// The smallest box covering both boxes (the paper's "union" strategy).
    pub fn union(&self, other: &BBox) -> BBox {
        let x0 = self.x.min(other.x);
        let y0 = self.y.min(other.y);
        let x1 = self.x1().max(other.x1());
        let y1 = self.y1().max(other.y1());
        BBox::new(x0, y0, x1 - x0, y1 - y0)
    }

    /// Intersection-over-union in `[0, 1]`.
    pub fn iou(&self, other: &BBox) -> f32 {
        let inter = match self.intersection(other) {
            Some(b) => b.area(),
            None => return 0.0,
        };
        let union = self.area() + other.area() - inter;
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }

    /// True when the boxes overlap with positive area.
    pub fn overlaps(&self, other: &BBox) -> bool {
        self.intersection(other).is_some()
    }

    /// Coordinate-wise average of a set of boxes — the paper's preferred
    /// combination strategy for overlapping worker annotations (Section 3).
    /// Returns `None` for an empty slice.
    pub fn average(boxes: &[BBox]) -> Option<BBox> {
        if boxes.is_empty() {
            return None;
        }
        let n = boxes.len() as f32;
        let (mut x, mut y, mut w, mut h) = (0.0, 0.0, 0.0, 0.0);
        for b in boxes {
            x += b.x;
            y += b.y;
            w += b.w;
            h += b.h;
        }
        Some(BBox::new(x / n, y / n, w / n, h / n))
    }

    /// The smallest box covering all boxes (the "union" strategy applied to
    /// a group). Returns `None` for an empty slice.
    pub fn union_all(boxes: &[BBox]) -> Option<BBox> {
        boxes.iter().copied().reduce(|acc, b| acc.union(&b))
    }

    /// The common intersection of all boxes (the "intersection" strategy).
    /// Returns `None` when any pair is disjoint or the slice is empty.
    pub fn intersection_all(boxes: &[BBox]) -> Option<BBox> {
        let mut iter = boxes.iter();
        let first = *iter.next()?;
        iter.try_fold(first, |acc, b| acc.intersection(b))
    }

    /// Clip the box to an image of `width` x `height`, rounding outward to
    /// integer pixel coordinates. Returns `None` when nothing remains.
    pub fn clip(&self, width: usize, height: usize) -> Option<BBox> {
        let x0 = self.x.floor().max(0.0);
        let y0 = self.y.floor().max(0.0);
        let x1 = self.x1().ceil().min(width as f32);
        let y1 = self.y1().ceil().min(height as f32);
        if x1 - x0 >= 1.0 && y1 - y0 >= 1.0 {
            Some(BBox::new(x0, y0, x1 - x0, y1 - y0))
        } else {
            None
        }
    }

    /// Grow (or shrink, for negative margins) the box by `margin` on every
    /// side, keeping the center fixed.
    pub fn inflated(&self, margin: f32) -> BBox {
        BBox::new(
            self.x - margin,
            self.y - margin,
            self.w + 2.0 * margin,
            self.h + 2.0 * margin,
        )
    }
}

/// Group boxes into connected components under pairwise overlap, in input
/// order. Used by the crowdsourcing workflow to find boxes that describe
/// the same defect before combining them.
pub fn overlap_groups(boxes: &[BBox]) -> Vec<Vec<usize>> {
    overlap_groups_iou(boxes, 0.0)
}

/// Like [`overlap_groups`], but two boxes are only connected when their
/// IoU exceeds `min_iou`. Elongated defects (scratches, cracks) from
/// *different* instances often graze each other; a small positive
/// threshold keeps them from chain-merging into one group.
pub fn overlap_groups_iou(boxes: &[BBox], min_iou: f32) -> Vec<Vec<usize>> {
    let n = boxes.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], i: usize) -> usize {
        let mut root = i;
        while parent[root] != root {
            root = parent[root];
        }
        let mut cur = i;
        while parent[cur] != root {
            let next = parent[cur];
            parent[cur] = root;
            cur = next;
        }
        root
    }
    for i in 0..n {
        for j in (i + 1)..n {
            let connected = if min_iou <= 0.0 {
                boxes[i].overlaps(&boxes[j])
            } else {
                boxes[i].iou(&boxes[j]) > min_iou
            };
            if connected {
                let ri = find(&mut parent, i);
                let rj = find(&mut parent, j);
                if ri != rj {
                    parent[rj] = ri;
                }
            }
        }
    }
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut root_to_group: std::collections::HashMap<usize, usize> =
        std::collections::HashMap::new();
    for i in 0..n {
        let r = find(&mut parent, i);
        let g = *root_to_group.entry(r).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(i);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_corners_normalizes_order() {
        let b = BBox::from_corners(5.0, 7.0, 1.0, 2.0);
        assert_eq!(b, BBox::new(1.0, 2.0, 4.0, 5.0));
    }

    #[test]
    fn negative_extent_clamped() {
        let b = BBox::new(0.0, 0.0, -3.0, 2.0);
        assert_eq!(b.w, 0.0);
        assert!(b.is_empty());
    }

    #[test]
    fn intersection_of_overlapping() {
        let a = BBox::new(0.0, 0.0, 4.0, 4.0);
        let b = BBox::new(2.0, 2.0, 4.0, 4.0);
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, BBox::new(2.0, 2.0, 2.0, 2.0));
    }

    #[test]
    fn intersection_of_disjoint_is_none() {
        let a = BBox::new(0.0, 0.0, 1.0, 1.0);
        let b = BBox::new(5.0, 5.0, 1.0, 1.0);
        assert!(a.intersection(&b).is_none());
        assert_eq!(a.iou(&b), 0.0);
    }

    #[test]
    fn touching_boxes_do_not_overlap() {
        let a = BBox::new(0.0, 0.0, 1.0, 1.0);
        let b = BBox::new(1.0, 0.0, 1.0, 1.0);
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn iou_identity_is_one() {
        let a = BBox::new(3.0, 4.0, 5.0, 6.0);
        assert!((a.iou(&a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn iou_is_symmetric() {
        let a = BBox::new(0.0, 0.0, 4.0, 4.0);
        let b = BBox::new(1.0, 1.0, 4.0, 4.0);
        assert!((a.iou(&b) - b.iou(&a)).abs() < 1e-6);
    }

    #[test]
    fn union_covers_both() {
        let a = BBox::new(0.0, 0.0, 1.0, 1.0);
        let b = BBox::new(5.0, 5.0, 1.0, 1.0);
        let u = a.union(&b);
        assert_eq!(u, BBox::new(0.0, 0.0, 6.0, 6.0));
    }

    #[test]
    fn average_of_identical_is_identity() {
        let a = BBox::new(1.0, 2.0, 3.0, 4.0);
        assert_eq!(BBox::average(&[a, a, a]).unwrap(), a);
    }

    #[test]
    fn average_strategy_between_union_and_intersection() {
        // The paper motivates averaging as a compromise: union too large,
        // intersection too small.
        let a = BBox::new(0.0, 0.0, 10.0, 10.0);
        let b = BBox::new(2.0, 2.0, 10.0, 10.0);
        let avg = BBox::average(&[a, b]).unwrap();
        let uni = BBox::union_all(&[a, b]).unwrap();
        let inter = BBox::intersection_all(&[a, b]).unwrap();
        assert!(inter.area() < avg.area());
        assert!(avg.area() < uni.area());
    }

    #[test]
    fn combination_strategies_on_empty_slice() {
        assert!(BBox::average(&[]).is_none());
        assert!(BBox::union_all(&[]).is_none());
        assert!(BBox::intersection_all(&[]).is_none());
    }

    #[test]
    fn intersection_all_detects_disjoint_triple() {
        let a = BBox::new(0.0, 0.0, 2.0, 2.0);
        let b = BBox::new(1.0, 1.0, 2.0, 2.0);
        let c = BBox::new(10.0, 10.0, 2.0, 2.0);
        assert!(BBox::intersection_all(&[a, b]).is_some());
        assert!(BBox::intersection_all(&[a, b, c]).is_none());
    }

    #[test]
    fn clip_inside_image() {
        let b = BBox::new(-2.5, 3.0, 10.0, 10.0);
        let c = b.clip(8, 8).unwrap();
        // Rounded outward: right edge 7.5 rounds up to 8.
        assert_eq!(c, BBox::new(0.0, 3.0, 8.0, 5.0));
    }

    #[test]
    fn clip_outside_image_is_none() {
        let b = BBox::new(20.0, 20.0, 5.0, 5.0);
        assert!(b.clip(8, 8).is_none());
        // Outward rounding keeps sub-pixel slivers alive as one-pixel boxes.
        let sliver = BBox::new(0.0, 0.0, 0.2, 5.0);
        assert_eq!(sliver.clip(8, 8).unwrap().w, 1.0);
    }

    #[test]
    fn inflate_keeps_center() {
        let b = BBox::new(2.0, 2.0, 4.0, 4.0);
        let g = b.inflated(1.0);
        assert_eq!(g.center(), b.center());
        assert_eq!(g.w, 6.0);
    }

    #[test]
    fn overlap_groups_transitive() {
        // a overlaps b, b overlaps c, but a does not overlap c: one group.
        let a = BBox::new(0.0, 0.0, 3.0, 3.0);
        let b = BBox::new(2.0, 0.0, 3.0, 3.0);
        let c = BBox::new(4.0, 0.0, 3.0, 3.0);
        let d = BBox::new(100.0, 100.0, 1.0, 1.0);
        let groups = overlap_groups(&[a, b, c, d]);
        assert_eq!(groups.len(), 2);
        let big = groups.iter().find(|g| g.len() == 3).unwrap();
        assert_eq!(*big, vec![0, 1, 2]);
    }

    #[test]
    fn overlap_groups_empty_input() {
        assert!(overlap_groups(&[]).is_empty());
    }
}
