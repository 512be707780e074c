//! Compiled program images.

use crate::compile::Mode;
use argus_machine::Machine;
use std::ops::Range;

/// Statistics from the signature-embedding phases (feed Figure 5's static
/// instruction-count overhead).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EmbedStats {
    /// Number of basic blocks formed.
    pub blocks: usize,
    /// Signature instructions inserted (carriers + end-of-block markers).
    pub sig_instrs: usize,
    /// Total static instructions in the final binary.
    pub static_instrs: usize,
}

/// A fully linked program image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Compilation mode this image was produced for.
    pub mode: Mode,
    /// Base address of the code section.
    pub code_base: u32,
    /// Encoded instruction words.
    pub code: Vec<u32>,
    /// Base address of the data section.
    pub data_base: u32,
    /// Initialized data words (code pointers already packed).
    pub data: Vec<u32>,
    /// Entry point.
    pub entry: u32,
    /// DCS of the entry block (Argus builds only). A real system's loader
    /// enters a protected binary through an indirect jump whose target
    /// register carries this value; the runtime checker is armed with it so
    /// the first basic block is verified like every other.
    pub entry_dcs: Option<u32>,
    /// Embedding statistics (zeroed for baseline builds except
    /// `static_instrs`).
    pub stats: EmbedStats,
}

impl Program {
    /// Loads the image into a machine and sets the entry point.
    ///
    /// # Panics
    ///
    /// Panics if the machine's Argus mode does not match the image's
    /// compilation mode (running a signature-embedded binary on a baseline
    /// core, or vice versa, is a configuration bug).
    pub fn load(&self, m: &mut Machine) {
        let want_argus = self.mode == Mode::Argus;
        assert_eq!(
            m.config().argus_mode,
            want_argus,
            "machine mode does not match program mode {:?}",
            self.mode
        );
        m.load_code(self.code_base, &self.code);
        m.load_data(self.data_base, &self.data);
        m.set_pc(self.entry);
    }

    /// Rewrites every memory page written at or after generation
    /// `since_gen` back to its load-time contents: the protected-zero fill
    /// `Machine::new` gives an Argus-mode machine, then this image's code
    /// and data words on that page, written through the same
    /// `load_code` / `load_data` encodings as [`Program::load`]. Pages not
    /// dirty since `since_gen` must already hold load-time contents;
    /// `since_gen == 0` rewrites every page. Registers, PC and caches are
    /// left alone — the caller restores core state separately.
    ///
    /// # Panics
    ///
    /// Panics unless both the image and the machine are Argus mode (the
    /// protected-zero fill is an Argus-mode machine's power-on memory).
    pub fn reload_pages(&self, m: &mut Machine, since_gen: u64) {
        for page in 0..m.mem().memory().page_count() {
            if m.mem().memory().page_dirty_since(page, since_gen) {
                self.reload_page(m, page);
            }
        }
    }

    /// Rewrites dirty-tracking page `page` back to its load-time contents,
    /// as [`Program::reload_pages`] does for each dirty page.
    ///
    /// # Panics
    ///
    /// Panics unless both the image and the machine are Argus mode, or if
    /// `page` is out of range.
    pub fn reload_page(&self, m: &mut Machine, page: usize) {
        assert!(
            self.mode == Mode::Argus && m.config().argus_mode,
            "page-restricted reload is defined for Argus-mode images only"
        );
        m.mem_mut().memory_mut().fill_protected_zero_page(page);
        let words = m.mem().memory().page_word_range(page);
        let bytes = 4 * words.start as u64..4 * words.end as u64;
        let code = words_within(self.code_base, self.code.len(), &bytes);
        if !code.is_empty() {
            m.load_code(self.code_base + 4 * code.start as u32, &self.code[code]);
        }
        let data = words_within(self.data_base, self.data.len(), &bytes);
        if !data.is_empty() {
            m.load_data(self.data_base + 4 * data.start as u32, &self.data[data]);
        }
    }

    /// Address of the data word at `offset` bytes into the data section.
    pub fn data_addr(&self, offset: u32) -> u32 {
        self.data_base + offset
    }
}

/// Indices of the words of a section at `base` (`len` words) whose byte
/// address lies in `bytes`.
fn words_within(base: u32, len: usize, bytes: &Range<u64>) -> Range<usize> {
    let first = |addr: u64| (addr.saturating_sub(u64::from(base)).div_ceil(4) as usize).min(len);
    first(bytes.start)..first(bytes.end)
}
