//! # ig-baselines
//!
//! Every system Inspector Gadget is compared against in Section 6:
//!
//! * [`snuba`] — Snuba (Varma & Ré, PVLDB 2018): automatic labeling-
//!   function synthesis over primitives (here: the same FGF similarity
//!   features IG uses, "in order to be favorable to Snuba"), combined by a
//!   generative [`label_model`];
//! * [`goggles`] — GOGGLES (Das et al., SIGMOD 2020): affinity coding over
//!   max-activation prototypes from a frozen feature extractor. The
//!   pre-trained VGG-16 is substituted with a fixed multi-scale filter
//!   bank (see DESIGN.md);
//! * [`cnn_models`] + [`selflearn`] — self-learning CNN baselines: MiniVGG
//!   (for VGG-19), MiniMobileNet (for MobileNetV2) and MiniResNet (for
//!   ResNet50) trained on the development set only. The same
//!   [`SelfLearner`] is the end model of Section 6.6 (Table 5), trained on
//!   dev ∪ weak labels and scored with `ig_eval::metrics::task_f1`;
//! * [`transfer`] — the transfer-learning baseline: pre-train on a source
//!   corpus (SynthNet playing ImageNet, or another defect dataset for
//!   Table 2), fine-tune on the target dev set.

#![warn(missing_docs)]

pub mod cnn_models;
pub mod goggles;
pub mod label_model;
pub mod selflearn;
pub mod snuba;
pub mod transfer;

pub use cnn_models::{images_to_tensor, CnnArch};
pub use goggles::Goggles;
pub use label_model::LabelModel;
pub use selflearn::SelfLearner;
pub use snuba::{Snuba, SnubaConfig};
