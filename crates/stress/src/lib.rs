//! STRESS-SGX workload models (§VI-C of the paper).
//!
//! The paper materialises Borg trace records into containers running
//! STRESS-SGX — a fork of STRESS-NG with an EPC stressor. Standard jobs
//! run the original virtual-memory stressor; SGX jobs run the EPC
//! stressor; and the Fig. 11 experiment adds *malicious* containers that
//! declare a 1-page EPC limit but map up to half of a node's EPC.
//!
//! This crate models what those binaries *do to memory*: how much a
//! container declares, how much it actually allocates, and inside which
//! kind of memory. The cluster simulation executes these plans against the
//! simulated SGX driver.
//!
//! # Examples
//!
//! ```
//! use sgx_sim::units::{ByteSize, USABLE_EPC};
//! use stress::Stressor;
//!
//! // An EPC stressor allocating 16 MiB inside an enclave.
//! let stressor = Stressor::epc(ByteSize::from_mib(16));
//! let plan = stressor.plan_on(USABLE_EPC);
//! assert_eq!(plan.epc_allocation, ByteSize::from_mib(16).to_epc_pages_ceil());
//! assert!(plan.requires_sgx);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod image;
mod stressor;

pub use image::ContainerImage;

pub use stressor::{StressPlan, Stressor};
