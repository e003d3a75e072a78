//! Minimal 3D geometry: vectors, rotation matrices, unit quaternions and
//! SE(3) poses with their SO(3) exponential/logarithm maps.
//!
//! Fixed-size arrays keep the per-factor math allocation-free; the solver
//! converts to `archytas_math` dense matrices only when assembling the global
//! Jacobian.

use std::ops::{Add, Mul, Neg, Sub};

/// 3-vector.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3(pub [f64; 3]);

impl Vec3 {
    /// Zero vector.
    pub const ZERO: Vec3 = Vec3([0.0; 3]);

    /// Creates a vector from components.
    pub fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3([x, y, z])
    }

    /// X component.
    pub fn x(&self) -> f64 {
        self.0[0]
    }
    /// Y component.
    pub fn y(&self) -> f64 {
        self.0[1]
    }
    /// Z component.
    pub fn z(&self) -> f64 {
        self.0[2]
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Inner product.
    pub fn dot(&self, o: &Vec3) -> f64 {
        self.0[0] * o.0[0] + self.0[1] * o.0[1] + self.0[2] * o.0[2]
    }

    /// Cross product.
    pub fn cross(&self, o: &Vec3) -> Vec3 {
        Vec3([
            self.0[1] * o.0[2] - self.0[2] * o.0[1],
            self.0[2] * o.0[0] - self.0[0] * o.0[2],
            self.0[0] * o.0[1] - self.0[1] * o.0[0],
        ])
    }

    /// Unit vector in the same direction.
    ///
    /// # Panics
    ///
    /// Panics on the zero vector.
    pub fn normalized(&self) -> Vec3 {
        let n = self.norm();
        assert!(n > 0.0, "normalized: zero vector");
        *self * (1.0 / n)
    }

    /// Skew-symmetric (hat) matrix `[v]×` such that `[v]× w = v × w`.
    pub fn skew(&self) -> Mat3 {
        Mat3([
            [0.0, -self.0[2], self.0[1]],
            [self.0[2], 0.0, -self.0[0]],
            [-self.0[1], self.0[0], 0.0],
        ])
    }

    /// `true` when all components are finite.
    pub fn is_finite(&self) -> bool {
        self.0.iter().all(|v| v.is_finite())
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    fn add(self, o: Vec3) -> Vec3 {
        Vec3([self.0[0] + o.0[0], self.0[1] + o.0[1], self.0[2] + o.0[2]])
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3([self.0[0] - o.0[0], self.0[1] - o.0[1], self.0[2] - o.0[2]])
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    fn neg(self) -> Vec3 {
        Vec3([-self.0[0], -self.0[1], -self.0[2]])
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    fn mul(self, s: f64) -> Vec3 {
        Vec3([self.0[0] * s, self.0[1] * s, self.0[2] * s])
    }
}

/// Row-major 3×3 matrix.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Mat3(pub [[f64; 3]; 3]);

impl Mat3 {
    /// Identity matrix.
    pub const IDENTITY: Mat3 = Mat3([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]);

    /// Zero matrix.
    pub const ZERO: Mat3 = Mat3([[0.0; 3]; 3]);

    /// Transposed copy.
    pub fn transpose(&self) -> Mat3 {
        let m = &self.0;
        Mat3([
            [m[0][0], m[1][0], m[2][0]],
            [m[0][1], m[1][1], m[2][1]],
            [m[0][2], m[1][2], m[2][2]],
        ])
    }

    /// Matrix–vector product.
    pub fn mul_vec(&self, v: &Vec3) -> Vec3 {
        Vec3([
            self.0[0][0] * v.0[0] + self.0[0][1] * v.0[1] + self.0[0][2] * v.0[2],
            self.0[1][0] * v.0[0] + self.0[1][1] * v.0[1] + self.0[1][2] * v.0[2],
            self.0[2][0] * v.0[0] + self.0[2][1] * v.0[1] + self.0[2][2] * v.0[2],
        ])
    }

    /// Element access.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.0[i][j]
    }

    /// Scales every element.
    pub fn scale(&self, s: f64) -> Mat3 {
        let mut out = *self;
        for row in &mut out.0 {
            for v in row {
                *v *= s;
            }
        }
        out
    }

    /// Frobenius distance to another matrix (for tests).
    pub fn distance(&self, o: &Mat3) -> f64 {
        let mut acc = 0.0;
        for i in 0..3 {
            for j in 0..3 {
                let d = self.0[i][j] - o.0[i][j];
                acc += d * d;
            }
        }
        acc.sqrt()
    }
}

impl Mul for Mat3 {
    type Output = Mat3;
    fn mul(self, o: Mat3) -> Mat3 {
        let mut out = Mat3::ZERO;
        for i in 0..3 {
            for j in 0..3 {
                out.0[i][j] =
                    self.0[i][0] * o.0[0][j] + self.0[i][1] * o.0[1][j] + self.0[i][2] * o.0[2][j];
            }
        }
        out
    }
}

impl Add for Mat3 {
    type Output = Mat3;
    fn add(self, o: Mat3) -> Mat3 {
        let mut out = Mat3::ZERO;
        for i in 0..3 {
            for j in 0..3 {
                out.0[i][j] = self.0[i][j] + o.0[i][j];
            }
        }
        out
    }
}

impl Sub for Mat3 {
    type Output = Mat3;
    fn sub(self, o: Mat3) -> Mat3 {
        let mut out = Mat3::ZERO;
        for i in 0..3 {
            for j in 0..3 {
                out.0[i][j] = self.0[i][j] - o.0[i][j];
            }
        }
        out
    }
}

/// Unit quaternion `(w, x, y, z)` representing a rotation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quat {
    /// Scalar part.
    pub w: f64,
    /// Vector part.
    pub v: Vec3,
}

impl Default for Quat {
    fn default() -> Self {
        Quat::IDENTITY
    }
}

impl Quat {
    /// The identity rotation.
    pub const IDENTITY: Quat = Quat {
        w: 1.0,
        v: Vec3::ZERO,
    };

    /// Quaternion from an axis-angle rotation vector `θ·axis` via the SO(3)
    /// exponential map.
    pub fn exp(theta: &Vec3) -> Quat {
        let angle = theta.norm();
        if angle < 1e-12 {
            // First-order expansion keeps the map smooth through zero.
            Quat {
                w: 1.0,
                v: *theta * 0.5,
            }
            .normalized()
        } else {
            let half = angle * 0.5;
            Quat {
                w: half.cos(),
                v: *theta * (half.sin() / angle),
            }
        }
    }

    /// Rotation vector (SO(3) logarithm) of this quaternion.
    pub fn log(&self) -> Vec3 {
        let q = if self.w < 0.0 { self.neg() } else { *self };
        let sin_half = q.v.norm();
        if sin_half < 1e-12 {
            q.v * 2.0
        } else {
            let half = sin_half.atan2(q.w);
            q.v * (2.0 * half / sin_half)
        }
    }

    fn neg(&self) -> Quat {
        Quat {
            w: -self.w,
            v: -self.v,
        }
    }

    /// Hamilton product `self ⊗ o`.
    pub fn mul(&self, o: &Quat) -> Quat {
        Quat {
            w: self.w * o.w - self.v.dot(&o.v),
            v: o.v * self.w + self.v * o.w + self.v.cross(&o.v),
        }
    }

    /// Inverse rotation (conjugate for unit quaternions).
    pub fn inverse(&self) -> Quat {
        Quat {
            w: self.w,
            v: -self.v,
        }
    }

    /// Renormalizes to a unit quaternion.
    pub fn normalized(&self) -> Quat {
        let n = (self.w * self.w + self.v.dot(&self.v)).sqrt();
        Quat {
            w: self.w / n,
            v: self.v * (1.0 / n),
        }
    }

    /// Rotates a vector.
    pub fn rotate(&self, p: &Vec3) -> Vec3 {
        // v' = p + 2·w·(v × p) + 2·v × (v × p)
        let t = self.v.cross(p) * 2.0;
        *p + t * self.w + self.v.cross(&t)
    }

    /// Rotation matrix equivalent.
    pub fn to_mat(&self) -> Mat3 {
        let (w, x, y, z) = (self.w, self.v.x(), self.v.y(), self.v.z());
        Mat3([
            [
                1.0 - 2.0 * (y * y + z * z),
                2.0 * (x * y - w * z),
                2.0 * (x * z + w * y),
            ],
            [
                2.0 * (x * y + w * z),
                1.0 - 2.0 * (x * x + z * z),
                2.0 * (y * z - w * x),
            ],
            [
                2.0 * (x * z - w * y),
                2.0 * (y * z + w * x),
                1.0 - 2.0 * (x * x + y * y),
            ],
        ])
    }

    /// Angular distance in radians to another rotation.
    pub fn angle_to(&self, o: &Quat) -> f64 {
        self.inverse().mul(o).log().norm()
    }
}

/// Rigid-body pose mapping body coordinates to world coordinates:
/// `p_world = rot · p_body + trans`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Pose {
    /// Orientation (body → world).
    pub rot: Quat,
    /// Position of the body origin in the world frame.
    pub trans: Vec3,
}

impl Pose {
    /// The identity pose.
    pub const IDENTITY: Pose = Pose {
        rot: Quat::IDENTITY,
        trans: Vec3::ZERO,
    };

    /// Creates a pose from orientation and position.
    pub fn new(rot: Quat, trans: Vec3) -> Self {
        Self { rot, trans }
    }

    /// Maps a body-frame point to the world frame.
    pub fn transform(&self, p: &Vec3) -> Vec3 {
        self.rot.rotate(p) + self.trans
    }

    /// Maps a world-frame point to the body frame.
    pub fn inverse_transform(&self, p: &Vec3) -> Vec3 {
        self.rot.inverse().rotate(&(*p - self.trans))
    }

    /// Inverse pose.
    pub fn inverse(&self) -> Pose {
        let rot_inv = self.rot.inverse();
        Pose {
            rot: rot_inv,
            trans: -rot_inv.rotate(&self.trans),
        }
    }

    /// Retraction: perturbs the pose by a 6-dim tangent `[δθ; δp]` using a
    /// *right* perturbation on the rotation (`R ← R·Exp(δθ)`) and an additive
    /// one on the translation. All factor Jacobians in this crate are taken
    /// with respect to this convention.
    pub fn boxplus(&self, dtheta: &Vec3, dtrans: &Vec3) -> Pose {
        Pose {
            rot: self.rot.mul(&Quat::exp(dtheta)).normalized(),
            trans: self.trans + *dtrans,
        }
    }

    /// Translational distance to another pose.
    pub fn translation_distance(&self, o: &Pose) -> f64 {
        (self.trans - o.trans).norm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn vec_basics() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a.dot(&b), 32.0);
        assert_eq!(a.cross(&b), Vec3::new(-3.0, 6.0, -3.0));
        assert!((Vec3::new(3.0, 4.0, 0.0).norm() - 5.0).abs() < 1e-15);
        assert_eq!((a + b) - b, a);
        assert_eq!(-a, a * -1.0);
    }

    #[test]
    fn skew_realizes_cross_product() {
        let a = Vec3::new(0.3, -0.7, 1.1);
        let b = Vec3::new(-2.0, 0.5, 0.4);
        let via_skew = a.skew().mul_vec(&b);
        let direct = a.cross(&b);
        assert!((via_skew - direct).norm() < 1e-15);
    }

    #[test]
    fn mat3_products() {
        let r = Quat::exp(&Vec3::new(0.1, 0.2, 0.3)).to_mat();
        let rt_r = r.transpose() * r;
        assert!(rt_r.distance(&Mat3::IDENTITY) < 1e-12);
    }

    #[test]
    fn quat_exp_log_roundtrip() {
        for theta in [
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1e-14, 0.0, 0.0),
            Vec3::new(0.3, -0.4, 0.5),
            Vec3::new(0.0, PI * 0.9, 0.0),
        ] {
            let q = Quat::exp(&theta);
            assert!((q.log() - theta).norm() < 1e-9, "theta {theta:?}");
        }
    }

    #[test]
    fn quat_rotation_matches_matrix() {
        let q = Quat::exp(&Vec3::new(0.4, -0.2, 0.7));
        let p = Vec3::new(1.0, -2.0, 0.5);
        let via_quat = q.rotate(&p);
        let via_mat = q.to_mat().mul_vec(&p);
        assert!((via_quat - via_mat).norm() < 1e-12);
    }

    #[test]
    fn quat_composition() {
        let qx = Quat::exp(&Vec3::new(FRAC_PI_2, 0.0, 0.0));
        let qy = Quat::exp(&Vec3::new(0.0, FRAC_PI_2, 0.0));
        let p = Vec3::new(0.0, 0.0, 1.0);
        // Apply qy first, then qx.
        let composed = qx.mul(&qy).rotate(&p);
        let sequential = qx.rotate(&qy.rotate(&p));
        assert!((composed - sequential).norm() < 1e-12);
    }

    #[test]
    fn quat_inverse_undoes_rotation() {
        let q = Quat::exp(&Vec3::new(0.5, 0.6, -0.3));
        let p = Vec3::new(2.0, 1.0, -0.5);
        assert!((q.inverse().rotate(&q.rotate(&p)) - p).norm() < 1e-12);
        assert!(q.angle_to(&q) < 1e-12);
    }

    #[test]
    fn log_handles_negative_w() {
        let q = Quat::exp(&Vec3::new(0.2, 0.0, 0.0));
        let neg = Quat { w: -q.w, v: -q.v }; // same rotation
        assert!((neg.log() - Vec3::new(0.2, 0.0, 0.0)).norm() < 1e-12);
    }

    #[test]
    fn pose_transform_roundtrip() {
        let pose = Pose::new(
            Quat::exp(&Vec3::new(0.1, 0.9, -0.4)),
            Vec3::new(5.0, -2.0, 1.0),
        );
        let p = Vec3::new(0.3, 0.7, -1.2);
        let world = pose.transform(&p);
        let back = pose.inverse_transform(&world);
        assert!((back - p).norm() < 1e-12);
        // inverse() agrees with inverse_transform().
        let via_inv = pose.inverse().transform(&world);
        assert!((via_inv - p).norm() < 1e-12);
    }

    #[test]
    fn boxplus_zero_is_identity() {
        let pose = Pose::new(
            Quat::exp(&Vec3::new(0.3, 0.2, 0.1)),
            Vec3::new(1.0, 2.0, 3.0),
        );
        let same = pose.boxplus(&Vec3::ZERO, &Vec3::ZERO);
        assert!(pose.rot.angle_to(&same.rot) < 1e-12);
        assert!((pose.trans - same.trans).norm() < 1e-12);
    }

    #[test]
    fn boxplus_small_step_moves_linearly() {
        let pose = Pose::IDENTITY;
        let step = Vec3::new(1e-6, 0.0, 0.0);
        let moved = pose.boxplus(&step, &Vec3::ZERO);
        assert!((moved.rot.log() - step).norm() < 1e-12);
    }
}
