//! Pinhole camera model.
//!
//! Visual observations are kept in *normalized image coordinates*
//! (`x = (u − cx)/fx`), the convention used by VINS-style MAP estimators:
//! the visual residual is then measured on the normalized plane and the
//! intrinsics only matter at observation-generation time.

use crate::geometry::Vec3;

/// Pinhole camera intrinsics (no distortion).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PinholeCamera {
    /// Focal length in pixels (x).
    pub fx: f64,
    /// Focal length in pixels (y).
    pub fy: f64,
    /// Principal point (x).
    pub cx: f64,
    /// Principal point (y).
    pub cy: f64,
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
}

impl PinholeCamera {
    /// A KITTI-like grayscale camera (≈ 1241×376, f ≈ 718).
    pub fn kitti_like() -> Self {
        Self {
            fx: 718.856,
            fy: 718.856,
            cx: 607.19,
            cy: 185.22,
            width: 1241,
            height: 376,
        }
    }

    /// A EuRoC-like VGA camera (752×480, f ≈ 458).
    pub fn euroc_like() -> Self {
        Self {
            fx: 458.654,
            fy: 457.296,
            cx: 367.215,
            cy: 248.375,
            width: 752,
            height: 480,
        }
    }

    /// Projects a camera-frame point to pixel coordinates, or `None` when the
    /// point is behind the camera or lands outside the image.
    pub fn project(&self, p_cam: &Vec3) -> Option<[f64; 2]> {
        if p_cam.z() <= 1e-6 {
            return None;
        }
        let u = self.fx * p_cam.x() / p_cam.z() + self.cx;
        let v = self.fy * p_cam.y() / p_cam.z() + self.cy;
        if u < 0.0 || u >= f64::from(self.width) || v < 0.0 || v >= f64::from(self.height) {
            return None;
        }
        Some([u, v])
    }

    /// Projects to normalized image coordinates (`z = 1` plane), or `None`
    /// when the point is behind the camera.
    pub fn project_normalized(p_cam: &Vec3) -> Option<[f64; 2]> {
        if p_cam.z() <= 1e-6 {
            return None;
        }
        Some([p_cam.x() / p_cam.z(), p_cam.y() / p_cam.z()])
    }

    /// The bearing vector `[x, y, 1]` of a normalized observation.
    pub fn bearing(normalized: [f64; 2]) -> Vec3 {
        Vec3::new(normalized[0], normalized[1], 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn project_center() {
        let cam = PinholeCamera::euroc_like();
        let p = Vec3::new(0.0, 0.0, 5.0);
        let uv = cam.project(&p).unwrap();
        assert!((uv[0] - cam.cx).abs() < 1e-12);
        assert!((uv[1] - cam.cy).abs() < 1e-12);
    }

    #[test]
    fn behind_camera_rejected() {
        let cam = PinholeCamera::kitti_like();
        assert!(cam.project(&Vec3::new(0.0, 0.0, -1.0)).is_none());
        assert!(PinholeCamera::project_normalized(&Vec3::new(1.0, 1.0, 0.0)).is_none());
    }

    #[test]
    fn out_of_frame_rejected() {
        let cam = PinholeCamera::euroc_like();
        // A point far to the side at small depth projects off-image.
        assert!(cam.project(&Vec3::new(10.0, 0.0, 1.0)).is_none());
    }

    #[test]
    fn bearing_has_unit_z() {
        let b = PinholeCamera::bearing([0.3, -0.2]);
        assert_eq!(b.z(), 1.0);
        assert_eq!(b.x(), 0.3);
    }
}
